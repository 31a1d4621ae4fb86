// Behavioural tests for the Algorithm 1 family (CD/BCD/accCD/accBCD).
#include <cmath>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/objective.hpp"
#include "core/registry.hpp"
#include "data/synthetic.hpp"
#include "la/vector_ops.hpp"

namespace sa::core {
namespace {

data::Dataset small_problem(std::uint64_t seed = 42) {
  data::RegressionConfig cfg;
  cfg.num_points = 60;
  cfg.num_features = 25;
  cfg.density = 0.4;
  cfg.support_size = 4;
  cfg.noise_sigma = 0.01;
  cfg.seed = seed;
  return data::make_regression(cfg).dataset;
}

SolverSpec base_spec() {
  return SolverSpec::make("lasso")
      .with_lambda(0.1)
      .with_max_iterations(400)
      .with_trace_every(50)
      .with_seed(7);
}

TEST(Lasso, ObjectiveDecreasesMonotonicallyForPlainCd) {
  const data::Dataset d = small_problem();
  SolverSpec opt = base_spec();
  const SolveResult r = solve(d, opt);
  ASSERT_GE(r.trace.points.size(), 2u);
  for (std::size_t i = 1; i < r.trace.points.size(); ++i)
    EXPECT_LE(r.trace.points[i].objective,
              r.trace.points[i - 1].objective + 1e-10);
}

TEST(Lasso, FinalObjectiveMatchesFromScratchEvaluation) {
  const data::Dataset d = small_problem();
  SolverSpec opt = base_spec();
  const SolveResult r = solve(d, opt);
  const double from_scratch = lasso_objective(d.a, d.b, r.x, opt.lambda);
  EXPECT_NEAR(r.trace.final_objective(), from_scratch,
              1e-9 * std::max(1.0, from_scratch));
}

TEST(Lasso, BlockVariantAlsoDescends) {
  const data::Dataset d = small_problem();
  SolverSpec opt = base_spec();
  opt.block_size = 5;
  const SolveResult r = solve(d, opt);
  EXPECT_LT(r.trace.points.back().objective,
            r.trace.points.front().objective);
}

TEST(Lasso, AcceleratedVariantDescendsOverall) {
  const data::Dataset d = small_problem();
  SolverSpec opt = base_spec();
  opt.accelerated = true;
  opt.block_size = 4;
  const SolveResult r = solve(d, opt);
  // Accelerated methods are not monotone per-iteration, but must descend
  // over the whole run.
  EXPECT_LT(r.trace.points.back().objective,
            0.9 * r.trace.points.front().objective);
}

TEST(Lasso, AccelerationConvergesAtLeastAsFastAsPlain) {
  const data::Dataset d = small_problem();
  SolverSpec plain = base_spec();
  plain.block_size = 4;
  plain.max_iterations = 600;
  SolverSpec acc = plain;
  acc.accelerated = true;
  const double f_plain = solve(d, plain).trace.final_objective();
  const double f_acc = solve(d, acc).trace.final_objective();
  // The paper's Figure 2: accelerated variants dominate at equal H.
  EXPECT_LE(f_acc, f_plain * 1.05);
}

TEST(Lasso, LargerBlocksConvergeFasterPerIteration) {
  // Paper Figure 2 finding: µ = 8 beats µ = 1 at equal iteration counts.
  const data::Dataset d = small_problem();
  SolverSpec mu1 = base_spec();
  mu1.max_iterations = 150;
  SolverSpec mu8 = mu1;
  mu8.block_size = 8;
  const double f1 = solve(d, mu1).trace.final_objective();
  const double f8 = solve(d, mu8).trace.final_objective();
  EXPECT_LT(f8, f1);
}

TEST(Lasso, StrongRegularizationDrivesSolutionToZero) {
  const data::Dataset d = small_problem();
  SolverSpec opt = base_spec();
  opt.lambda = 10.0 * lasso_lambda_max(d.a, d.b);
  opt.max_iterations = 200;
  const SolveResult r = solve(d, opt);
  EXPECT_NEAR(la::asum(r.x), 0.0, 1e-12);
}

TEST(Lasso, LassoSolutionIsSparse) {
  const data::Dataset d = small_problem();
  SolverSpec opt = base_spec();
  opt.lambda = 0.25 * lasso_lambda_max(d.a, d.b);
  opt.max_iterations = 2000;
  const SolveResult r = solve(d, opt);
  std::size_t nonzeros = 0;
  for (double v : r.x)
    if (std::abs(v) > 1e-10) ++nonzeros;
  EXPECT_LT(nonzeros, d.num_features());  // sparsity induced
  EXPECT_GT(nonzeros, 0u);                // but not trivial
}

TEST(Lasso, ElasticNetPenaltySupported) {
  const data::Dataset d = small_problem();
  SolverSpec opt = base_spec();
  opt.penalty = Penalty::kElasticNet;
  opt.elastic_net_l1 = 0.7;
  opt.elastic_net_l2 = 0.3;
  const SolveResult r = solve(d, opt);
  for (std::size_t i = 1; i < r.trace.points.size(); ++i)
    EXPECT_LE(r.trace.points[i].objective,
              r.trace.points[i - 1].objective + 1e-10);
}

TEST(Lasso, DeterministicAcrossRuns) {
  const data::Dataset d = small_problem();
  SolverSpec opt = base_spec();
  opt.block_size = 3;
  const SolveResult r1 = solve(d, opt);
  const SolveResult r2 = solve(d, opt);
  EXPECT_EQ(r1.x, r2.x);  // bitwise: same seed, same arithmetic
}

TEST(Lasso, SeedChangesTrajectoryNotQuality) {
  const data::Dataset d = small_problem();
  SolverSpec a = base_spec();
  SolverSpec b = base_spec();
  b.seed = 1234;
  a.max_iterations = b.max_iterations = 1500;
  const SolveResult ra = solve(d, a);
  const SolveResult rb = solve(d, b);
  EXPECT_NE(ra.x, rb.x);
  EXPECT_NEAR(ra.trace.final_objective(), rb.trace.final_objective(),
              0.15 * std::max(ra.trace.final_objective(), 1e-12));
}

TEST(Lasso, MetersCommunicationPerIterationWhenDistributedStyle) {
  const data::Dataset d = small_problem();
  SolverSpec opt = base_spec();
  opt.trace_every = 0;
  opt.max_iterations = 10;
  dist::SerialComm comm;
  const SolveResult r =
      make_solver(comm, d, data::Partition::block(d.num_points(), 1), opt)
          ->run();
  // Serial comm charges nothing, but flops must be metered.
  EXPECT_GT(r.trace.final_stats.flops, 0u);
  EXPECT_EQ(r.trace.final_stats.messages, 0u);
}

TEST(Lasso, TraceRecordsRequestedCadence) {
  const data::Dataset d = small_problem();
  SolverSpec opt = base_spec();
  opt.max_iterations = 100;
  opt.trace_every = 25;
  const SolveResult r = solve(d, opt);
  ASSERT_EQ(r.trace.points.size(), 5u);  // h = 0, 25, 50, 75, 100
  EXPECT_EQ(r.trace.points[0].iteration, 0u);
  EXPECT_EQ(r.trace.points.back().iteration, 100u);
  EXPECT_EQ(r.trace.iterations_run, 100u);
}

TEST(Lasso, RejectsInvalidOptions) {
  const data::Dataset d = small_problem();
  SolverSpec opt = base_spec();
  opt.block_size = 0;
  EXPECT_THROW(solve(d, opt), sa::PreconditionError);
  opt = base_spec();
  opt.block_size = d.num_features() + 1;
  EXPECT_THROW(solve(d, opt), sa::PreconditionError);
  opt = base_spec();
  opt.lambda = -1.0;
  EXPECT_THROW(solve(d, opt), sa::PreconditionError);
}

/// Convergence quality sweep across problem shapes (over/under-determined,
/// sparse/dense) — the paper stresses speedups are shape-independent; here
/// we assert *correctness* is shape-independent.
struct ShapeCase {
  std::size_t m, n;
  double density;
};

class LassoShapeSweep : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(LassoShapeSweep, ReachesNearOptimalObjective) {
  const ShapeCase c = GetParam();
  data::RegressionConfig cfg;
  cfg.num_points = c.m;
  cfg.num_features = c.n;
  cfg.density = c.density;
  cfg.support_size = std::max<std::size_t>(1, c.n / 8);
  cfg.noise_sigma = 0.0;
  cfg.seed = 11;
  const data::Dataset d = data::make_regression(cfg).dataset;

  SolverSpec opt = SolverSpec::make("lasso");
  opt.lambda = 1e-3;
  opt.block_size = 2;
  opt.accelerated = true;
  opt.max_iterations = 4000;
  opt.trace_every = 4000;
  const SolveResult r = solve(d, opt);
  // With noiseless data and tiny λ the objective must approach ~0
  // relative to the zero-solution objective ½||b||².
  const double f0 =
      lasso_objective(d.a, d.b, std::vector<double>(c.n, 0.0), opt.lambda);
  EXPECT_LT(r.trace.final_objective(), 0.05 * f0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LassoShapeSweep,
    ::testing::Values(ShapeCase{80, 20, 0.3},    // over-determined sparse
                      ShapeCase{80, 20, 1.0},    // over-determined dense
                      ShapeCase{20, 60, 0.3},    // under-determined sparse
                      ShapeCase{20, 60, 1.0},    // under-determined dense
                      ShapeCase{50, 50, 0.15})); // square very sparse

}  // namespace
}  // namespace sa::core

namespace sa::core {
namespace {

TEST(Lasso, EmptyColumnsAreSkippedNotFatal) {
  // Ultra-sparse data (url/news20 regime): most columns have no nonzeros,
  // so sampled blocks are often entirely empty.  The solver must skip the
  // update (no finite step size exists) and keep descending overall.
  data::Dataset d;
  d.name = "mostly-empty";
  // 6 informative columns out of 64; every row nonempty.
  std::vector<la::Triplet> t;
  for (std::size_t i = 0; i < 30; ++i)
    t.push_back({i, i % 6, 1.0 + static_cast<double>(i % 3)});
  d.a = la::CsrMatrix::from_triplets(30, 64, t);
  d.b.assign(30, 1.0);

  for (bool accelerated : {false, true}) {
    SolverSpec opt = SolverSpec::make("lasso");
    opt.lambda = 0.01;
    opt.block_size = 4;
    opt.accelerated = accelerated;
    opt.max_iterations = 400;
    opt.trace_every = 400;
    const SolveResult r = solve(d, opt);
    EXPECT_LT(r.trace.points.back().objective,
              r.trace.points.front().objective)
        << (accelerated ? "accelerated" : "plain");

    // And the SA variant handles the same blocks identically.
    SolverSpec classical = opt;
    classical.trace_every = 0;
    SolverSpec sa = classical;
    sa.algorithm = "sa-lasso";
    sa.s = 16;
    const SolveResult got = solve(d, sa);
    const SolveResult ref = solve(d, classical);
    EXPECT_LT(la::max_rel_diff(ref.x, got.x), 1e-9);
  }
}

}  // namespace
}  // namespace sa::core
