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

}  // namespace sa::data
