#include "data/scaling.hpp"

#include <cmath>

#include "common/check.hpp"

namespace sa::data {

std::vector<double> ColumnScaling::unscale_solution(
    const std::vector<double>& x_scaled) const {
  SA_CHECK(x_scaled.size() == factors.size(),
           "unscale_solution: dimension mismatch");
  std::vector<double> x(x_scaled.size());
  for (std::size_t j = 0; j < x.size(); ++j)
    x[j] = x_scaled[j] * factors[j];
  return x;
}

std::pair<Dataset, ColumnScaling> normalize_columns(const Dataset& dataset) {
  dataset.validate();
  ColumnScaling scaling;
  scaling.factors.assign(dataset.num_features(), 1.0);
  const std::vector<double> norms = dataset.a.transposed().row_norms_squared();
  for (std::size_t j = 0; j < norms.size(); ++j) {
    if (norms[j] > 0.0) scaling.factors[j] = 1.0 / std::sqrt(norms[j]);
  }

  std::vector<la::Triplet> triplets;
  triplets.reserve(dataset.nnz());
  for (std::size_t i = 0; i < dataset.num_points(); ++i) {
    const auto idx = dataset.a.row_indices(i);
    const auto val = dataset.a.row_values(i);
    for (std::size_t k = 0; k < idx.size(); ++k)
      triplets.push_back({i, idx[k], val[k] * scaling.factors[idx[k]]});
  }
  Dataset out;
  out.name = dataset.name + "-colnorm";
  out.a = la::CsrMatrix::from_triplets(dataset.num_points(),
                                       dataset.num_features(),
                                       std::move(triplets));
  out.b = dataset.b;
  return {std::move(out), std::move(scaling)};
}

Dataset normalize_rows(const Dataset& dataset) {
  dataset.validate();
  const std::vector<double> norms = dataset.a.row_norms_squared();
  std::vector<la::Triplet> triplets;
  triplets.reserve(dataset.nnz());
  for (std::size_t i = 0; i < dataset.num_points(); ++i) {
    const double scale =
        norms[i] > 0.0 ? 1.0 / std::sqrt(norms[i]) : 1.0;
    const auto idx = dataset.a.row_indices(i);
    const auto val = dataset.a.row_values(i);
    for (std::size_t k = 0; k < idx.size(); ++k)
      triplets.push_back({i, idx[k], val[k] * scale});
  }
  Dataset out;
  out.name = dataset.name + "-rownorm";
  out.a = la::CsrMatrix::from_triplets(dataset.num_points(),
                                       dataset.num_features(),
                                       std::move(triplets));
  out.b = dataset.b;
  return out;
}

LabelStats standardize_labels(Dataset& dataset) {
  dataset.validate();
  LabelStats stats;
  const std::size_t m = dataset.b.size();
  if (m == 0) return stats;
  for (double v : dataset.b) stats.mean += v;
  stats.mean /= static_cast<double>(m);
  double var = 0.0;
  for (double v : dataset.b) {
    const double d = v - stats.mean;
    var += d * d;
  }
  stats.stddev = std::sqrt(var / static_cast<double>(m));
  const double scale = stats.stddev > 0.0 ? 1.0 / stats.stddev : 1.0;
  for (double& v : dataset.b) v = (v - stats.mean) * scale;
  return stats;
}

}  // namespace sa::data
