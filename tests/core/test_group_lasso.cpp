// Tests for the Group Lasso BCD solver.
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

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
  cfg.num_points = 50;
  cfg.num_features = 24;
  cfg.density = 0.5;
  cfg.support_size = 6;
  cfg.noise_sigma = 0.01;
  cfg.seed = seed;
  return data::make_regression(cfg).dataset;
}

SolverSpec base_spec(const data::Dataset& d) {
  SolverSpec opt = SolverSpec::make("group-lasso");
  opt.lambda = 0.1;
  opt.groups = GroupStructure::uniform(d.num_features(), 4);
  opt.max_iterations = 300;
  opt.trace_every = 50;
  opt.seed = 5;
  return opt;
}

TEST(GroupLasso, ObjectiveDecreasesMonotonically) {
  const data::Dataset d = small_problem();
  const SolveResult r = solve(d, base_spec(d));
  for (std::size_t i = 1; i < r.trace.points.size(); ++i)
    EXPECT_LE(r.trace.points[i].objective,
              r.trace.points[i - 1].objective + 1e-10);
}

TEST(GroupLasso, FinalObjectiveMatchesFromScratch) {
  const data::Dataset d = small_problem();
  const SolverSpec opt = base_spec(d);
  const SolveResult r = solve(d, opt);
  EXPECT_NEAR(r.trace.final_objective(),
              group_lasso_objective(d.a, d.b, r.x, opt.lambda, opt.groups),
              1e-9);
}

TEST(GroupLasso, InducesGroupLevelSparsity) {
  const data::Dataset d = small_problem();
  SolverSpec opt = base_spec(d);
  opt.lambda = 2.0;
  opt.max_iterations = 2000;
  const SolveResult r = solve(d, opt);
  // Whole groups must be zero or (mostly) dense — count dead groups.
  std::size_t dead_groups = 0;
  for (std::size_t g = 0; g < opt.groups.num_groups(); ++g) {
    double norm = 0.0;
    for (std::size_t j = opt.groups.offsets[g];
         j < opt.groups.offsets[g + 1]; ++j)
      norm += r.x[j] * r.x[j];
    if (norm == 0.0) ++dead_groups;
  }
  EXPECT_GT(dead_groups, 0u);
}

TEST(GroupLasso, HugeLambdaKillsEverything) {
  const data::Dataset d = small_problem();
  SolverSpec opt = base_spec(d);
  opt.lambda = 1e6;
  opt.max_iterations = 200;
  const SolveResult r = solve(d, opt);
  EXPECT_DOUBLE_EQ(la::asum(r.x), 0.0);
}

TEST(GroupLasso, SingletonGroupsBehaveLikeLasso) {
  // With group size 1 the penalty Σ|x_j| equals the Lasso penalty; the
  // solver should descend to a comparable objective value.
  const data::Dataset d = small_problem();
  SolverSpec opt = base_spec(d);
  opt.groups = GroupStructure::uniform(d.num_features(), 1);
  opt.max_iterations = 3000;
  const SolveResult r = solve(d, opt);
  const double f = lasso_objective(d.a, d.b, r.x, opt.lambda);
  EXPECT_NEAR(r.trace.final_objective(), f, 1e-9 * std::max(1.0, f));
}

TEST(GroupLasso, DeterministicAcrossRuns) {
  const data::Dataset d = small_problem();
  const SolverSpec opt = base_spec(d);
  EXPECT_EQ(solve(d, opt).x,
            solve(d, opt).x);
}

TEST(GroupLasso, RejectsNonCoveringGroups) {
  const data::Dataset d = small_problem();
  SolverSpec opt = base_spec(d);
  opt.groups = GroupStructure::uniform(d.num_features() - 1, 4);
  EXPECT_THROW(solve(d, opt), sa::PreconditionError);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Group ids ignore the Lasso-only knobs: acceleration and the
/// elementwise penalty must never reach the group soft-threshold path.
TEST(GroupLasso, IgnoresAccelerationAndElementwisePenalty) {
  const data::Dataset d = small_problem();
  for (const char* id : {"group-lasso", "sa-group-lasso"}) {
    SolverSpec plain = base_spec(d);
    plain.algorithm = id;
    plain.s = 8;
    SolverSpec accelerated = plain;
    accelerated.accelerated = true;
    SolverSpec elastic = plain;
    elastic.with_penalty(Penalty::kElasticNet, 0.5, 0.5);
    for (const int ranks : {1, 3}) {
      SCOPED_TRACE(std::string(id) + " P=" + std::to_string(ranks));
      const SolveResult ref = solve_on_ranks(d, plain, ranks);
      for (const SolverSpec& variant : {accelerated, elastic}) {
        const SolveResult got = solve_on_ranks(d, variant, ranks);
        EXPECT_TRUE(same_bits(ref.x, got.x));
        ASSERT_EQ(ref.trace.points.size(), got.trace.points.size());
        for (std::size_t i = 0; i < ref.trace.points.size(); ++i) {
          const TracePoint& a = ref.trace.points[i];
          const TracePoint& b = got.trace.points[i];
          EXPECT_EQ(a.iteration, b.iteration);
          EXPECT_TRUE(same_bits({a.objective}, {b.objective}));
          EXPECT_EQ(a.stats.flops, b.stats.flops);
          EXPECT_EQ(a.stats.replicated_flops, b.stats.replicated_flops);
          EXPECT_EQ(a.stats.words, b.stats.words);
        }
      }
    }
  }
}

/// Group-size sweep: descent and objective consistency for every layout.
class GroupSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GroupSizeSweep, DescendsForAnyGroupSize) {
  const data::Dataset d = small_problem(9);
  SolverSpec opt = base_spec(d);
  opt.groups = GroupStructure::uniform(d.num_features(), GetParam());
  const SolveResult r = solve(d, opt);
  EXPECT_LT(r.trace.points.back().objective,
            r.trace.points.front().objective);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GroupSizeSweep,
                         ::testing::Values(1, 2, 3, 6, 12, 24));

}  // namespace
}  // namespace sa::core
