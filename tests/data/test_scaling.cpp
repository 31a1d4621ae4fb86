// Tests for feature scaling / preprocessing.
#include "data/scaling.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "data/synthetic.hpp"
#include "la/vector_ops.hpp"

namespace sa::data {
namespace {

Dataset make_problem() {
  RegressionConfig cfg;
  cfg.num_points = 60;
  cfg.num_features = 25;
  cfg.density = 0.3;
  cfg.support_size = 5;
  cfg.seed = 3;
  return make_regression(cfg).dataset;
}

TEST(NormalizeColumns, ProducesUnitColumns) {
  const Dataset d = make_problem();
  const auto [scaled, scaling] = normalize_columns(d);
  const auto norms = scaled.a.transposed().row_norms_squared();
  for (std::size_t j = 0; j < norms.size(); ++j) {
    if (norms[j] > 0.0) {
      EXPECT_NEAR(norms[j], 1.0, 1e-12) << "column " << j;
    }
  }
}

TEST(NormalizeColumns, PreservesSparsityPatternAndLabels) {
  const Dataset d = make_problem();
  const auto [scaled, scaling] = normalize_columns(d);
  EXPECT_EQ(scaled.nnz(), d.nnz());
  EXPECT_EQ(scaled.b, d.b);
  EXPECT_EQ(scaled.num_features(), d.num_features());
}

TEST(NormalizeColumns, EmptyColumnsGetUnitFactor) {
  Dataset d;
  d.name = "gap";
  d.a = la::CsrMatrix::from_triplets(2, 3, {{0, 0, 2.0}, {1, 2, 4.0}});
  d.b = {1.0, -1.0};
  const auto [scaled, scaling] = normalize_columns(d);
  EXPECT_DOUBLE_EQ(scaling.factors[1], 1.0);  // column 1 is empty
  EXPECT_DOUBLE_EQ(scaling.factors[0], 0.5);
  EXPECT_DOUBLE_EQ(scaling.factors[2], 0.25);
}

TEST(NormalizeColumns, UnscaleMapsSolutionBack) {
  // If x̂ solves the scaled problem, then A_scaled·x̂ = A·unscale(x̂):
  // predictions are invariant.
  const Dataset d = make_problem();
  const auto [scaled, scaling] = normalize_columns(d);
  std::vector<double> x_hat(d.num_features());
  for (std::size_t j = 0; j < x_hat.size(); ++j)
    x_hat[j] = std::sin(static_cast<double>(j));
  const std::vector<double> x = scaling.unscale_solution(x_hat);
  std::vector<double> pred_scaled(d.num_points());
  std::vector<double> pred_original(d.num_points());
  scaled.a.spmv(x_hat, pred_scaled);
  d.a.spmv(x, pred_original);
  for (std::size_t i = 0; i < pred_scaled.size(); ++i)
    EXPECT_NEAR(pred_scaled[i], pred_original[i], 1e-10);
}

TEST(NormalizeColumns, UnscaleRejectsWrongLength) {
  const auto [scaled, scaling] = normalize_columns(make_problem());
  EXPECT_THROW(scaling.unscale_solution(std::vector<double>(3, 0.0)),
               sa::PreconditionError);
}

}  // namespace
}  // namespace sa::data
