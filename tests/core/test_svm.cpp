// Behavioural tests for dual coordinate-descent SVM (Algorithm 3).
#include "core/svm.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/objective.hpp"
#include "core/registry.hpp"
#include "data/synthetic.hpp"
#include "la/vector_ops.hpp"

namespace sa::core {
namespace {

data::Dataset separable_problem(std::uint64_t seed = 42) {
  data::ClassificationConfig cfg;
  cfg.num_points = 80;
  cfg.num_features = 25;
  cfg.density = 0.5;
  cfg.margin = 0.5;
  cfg.seed = seed;
  return data::make_classification(cfg);
}

SolverSpec base_spec(SvmLoss loss = SvmLoss::kL1) {
  SolverSpec opt = SolverSpec::make("svm");
  opt.lambda = 1.0;  // the paper's setting
  opt.loss = loss;
  opt.max_iterations = 4000;
  opt.trace_every = 500;
  opt.seed = 7;
  return opt;
}

TEST(Svm, DualityGapShrinksL1) {
  const data::Dataset d = separable_problem();
  const SolveResult r = solve(d, base_spec(SvmLoss::kL1));
  ASSERT_GE(r.trace.points.size(), 3u);
  EXPECT_LT(r.trace.points.back().objective,
            0.1 * r.trace.points.front().objective);
}

TEST(Svm, DualityGapShrinksL2) {
  const data::Dataset d = separable_problem();
  const SolveResult r = solve(d, base_spec(SvmLoss::kL2));
  EXPECT_LT(r.trace.points.back().objective,
            0.1 * r.trace.points.front().objective);
}

TEST(Svm, DualityGapIsNonNegativeThroughout) {
  const data::Dataset d = separable_problem();
  const SolveResult r = solve(d, base_spec());
  for (const TracePoint& p : r.trace.points)
    EXPECT_GE(p.objective, -1e-9);
}

TEST(Svm, DualIterateStaysInBoxL1) {
  const data::Dataset d = separable_problem();
  const SolverSpec opt = base_spec(SvmLoss::kL1);
  const SolveResult r = solve(d, opt);
  for (double a : r.alpha) {
    EXPECT_GE(a, -1e-15);
    EXPECT_LE(a, opt.lambda + 1e-15);
  }
}

TEST(Svm, DualIterateNonNegativeL2) {
  const data::Dataset d = separable_problem();
  const SolveResult r = solve(d, base_spec(SvmLoss::kL2));
  for (double a : r.alpha) EXPECT_GE(a, -1e-15);
}

TEST(Svm, PrimalEqualsWeightedSupportVectorSum) {
  // Invariant of the dual method: x = Σ b_i α_i A_iᵀ at every point.
  const data::Dataset d = separable_problem();
  const SolveResult r = solve(d, base_spec());
  std::vector<double> x(d.num_features(), 0.0);
  for (std::size_t i = 0; i < d.num_points(); ++i) {
    if (r.alpha[i] == 0.0) continue;
    la::axpy(d.b[i] * r.alpha[i], d.a.gather_row(i), x);
  }
  EXPECT_LT(la::max_rel_diff(x, r.x), 1e-9);
}

TEST(Svm, SeparableDataReachesHighTrainAccuracy) {
  const data::Dataset d = separable_problem();
  const SolveResult r = solve(d, base_spec(SvmLoss::kL2));
  EXPECT_GT(svm_accuracy(d.a, d.b, r.x), 0.95);
}

TEST(Svm, SparsityOfDualSolution) {
  // Support vectors are a subset of the data: some α must be exactly 0
  // (points classified with margin) on separable data.
  const data::Dataset d = separable_problem();
  const SolveResult r = solve(d, base_spec(SvmLoss::kL1));
  std::size_t zeros = 0;
  for (double a : r.alpha)
    if (a == 0.0) ++zeros;
  EXPECT_GT(zeros, 0u);
}

TEST(Svm, L2ConvergesFasterThanL1) {
  // Paper Figure 5: "SVM-L2 converges faster than SVM-L1 since the loss
  // function is smoothed."
  const data::Dataset d = separable_problem(3);
  SolverSpec l1 = base_spec(SvmLoss::kL1);
  SolverSpec l2 = base_spec(SvmLoss::kL2);
  l1.max_iterations = l2.max_iterations = 2000;
  const double gap1 = solve(d, l1).trace.points.back().objective;
  const double gap2 = solve(d, l2).trace.points.back().objective;
  EXPECT_LT(gap2, gap1 * 1.5);
}

TEST(Svm, GapToleranceStopsEarly) {
  const data::Dataset d = separable_problem();
  SolverSpec opt = base_spec(SvmLoss::kL2);
  opt.max_iterations = 100000;
  opt.trace_every = 200;
  opt.gap_tolerance = 1e-3;
  const SolveResult r = solve(d, opt);
  EXPECT_LT(r.trace.iterations_run, 100000u);
  EXPECT_LE(r.trace.points.back().objective, 1e-3);
}

TEST(Svm, DeterministicAcrossRuns) {
  const data::Dataset d = separable_problem();
  SolverSpec opt = base_spec();
  opt.max_iterations = 500;
  const SolveResult r1 = solve(d, opt);
  const SolveResult r2 = solve(d, opt);
  EXPECT_EQ(r1.x, r2.x);
  EXPECT_EQ(r1.alpha, r2.alpha);
}

TEST(Svm, RejectsNonBinaryLabels) {
  data::RegressionConfig cfg;
  cfg.num_points = 10;
  cfg.num_features = 5;
  cfg.support_size = 2;
  const data::Dataset d = data::make_regression(cfg).dataset;
  EXPECT_THROW(solve(d, base_spec()), sa::PreconditionError);
}

TEST(SvmPredict, SignOfMargins) {
  const la::CsrMatrix a =
      la::CsrMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {1, 0, -1.0}});
  const std::vector<double> x{2.0, 0.0};
  const std::vector<double> pred = svm_predict(a, x);
  EXPECT_DOUBLE_EQ(pred[0], 1.0);
  EXPECT_DOUBLE_EQ(pred[1], -1.0);
}

TEST(SvmAccuracy, CountsMatches) {
  const la::CsrMatrix a =
      la::CsrMatrix::from_triplets(2, 1, {{0, 0, 1.0}, {1, 0, -1.0}});
  const std::vector<double> b{1.0, 1.0};
  const std::vector<double> x{1.0};
  EXPECT_DOUBLE_EQ(svm_accuracy(a, b, x), 0.5);
}

/// Sweep over losses and λ: the duality gap must always shrink and the
/// box constraint must always hold.
struct SvmCase {
  SvmLoss loss;
  double lambda;
};

class SvmSweep : public ::testing::TestWithParam<SvmCase> {};

TEST_P(SvmSweep, GapShrinksAndIterateFeasible) {
  const SvmCase c = GetParam();
  const data::Dataset d = separable_problem(13);
  SolverSpec opt = SolverSpec::make("svm");
  opt.lambda = c.lambda;
  opt.loss = c.loss;
  opt.max_iterations = 3000;
  opt.trace_every = 1500;
  const SolveResult r = solve(d, opt);
  EXPECT_LT(r.trace.points.back().objective,
            r.trace.points.front().objective);
  const double nu = SvmConstants::make(c.loss, c.lambda).nu;
  for (double a : r.alpha) {
    EXPECT_GE(a, -1e-15);
    EXPECT_LE(a, nu + 1e-15);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LossLambda, SvmSweep,
    ::testing::Values(SvmCase{SvmLoss::kL1, 0.1}, SvmCase{SvmLoss::kL1, 1.0},
                      SvmCase{SvmLoss::kL1, 10.0},
                      SvmCase{SvmLoss::kL2, 0.1}, SvmCase{SvmLoss::kL2, 1.0},
                      SvmCase{SvmLoss::kL2, 10.0}));

}  // namespace
}  // namespace sa::core
