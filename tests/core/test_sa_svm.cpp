// SA-SVM (Algorithm 4) equivalence and behaviour tests — the paper's §V
// claim that the rearrangement leaves the iterate sequence unchanged in
// exact arithmetic (validated in Figure 5 with s = 500).
#include <cmath>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/objective.hpp"
#include "core/registry.hpp"
#include "core/svm.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"
#include "la/vector_ops.hpp"

namespace sa::core {
namespace {

data::Dataset make_problem(std::size_t m, std::size_t n, double density,
                           std::uint64_t seed) {
  data::ClassificationConfig cfg;
  cfg.num_points = m;
  cfg.num_features = n;
  cfg.density = density;
  cfg.margin = 0.4;
  cfg.seed = seed;
  return data::make_classification(cfg);
}

constexpr double kIterateTol = 1e-9;

/// The synchronization-avoiding variant of a classical SVM spec.
SolverSpec sa_variant(SolverSpec spec, std::size_t s) {
  spec.algorithm = "sa-svm";
  spec.s = s;
  return spec;
}

struct SvmEquivalenceCase {
  std::size_t s;
  SvmLoss loss;
  double density;
};

void PrintTo(const SvmEquivalenceCase& c, std::ostream* os) {
  *os << (c.loss == SvmLoss::kL1 ? "L1" : "L2") << "_s" << c.s << "_d"
      << c.density;
}

class SaSvmEquivalenceSweep
    : public ::testing::TestWithParam<SvmEquivalenceCase> {};

TEST_P(SaSvmEquivalenceSweep, IteratesMatchNonSa) {
  const SvmEquivalenceCase c = GetParam();
  const data::Dataset d = make_problem(50, 30, c.density, 23);

  SolverSpec base = SolverSpec::make("svm");
  base.lambda = 1.0;
  base.loss = c.loss;
  base.max_iterations = 300;
  base.seed = 11;

  const SolveResult ref = solve(d, base);
  const SolveResult got = solve(d, sa_variant(base, c.s));

  EXPECT_LT(la::max_rel_diff(ref.alpha, got.alpha), kIterateTol);
  EXPECT_LT(la::max_rel_diff(ref.x, got.x), kIterateTol);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SaSvmEquivalenceSweep,
    ::testing::Values(SvmEquivalenceCase{2, SvmLoss::kL1, 0.3},
                      SvmEquivalenceCase{8, SvmLoss::kL1, 0.3},
                      SvmEquivalenceCase{32, SvmLoss::kL1, 0.3},
                      SvmEquivalenceCase{2, SvmLoss::kL2, 0.3},
                      SvmEquivalenceCase{8, SvmLoss::kL2, 0.3},
                      SvmEquivalenceCase{32, SvmLoss::kL2, 0.3},
                      SvmEquivalenceCase{4, SvmLoss::kL1, 1.0},
                      SvmEquivalenceCase{16, SvmLoss::kL2, 1.0}));

TEST(SaSvm, RepeatedCoordinateWithinWindowHandled) {
  // Tiny m forces the same data point to be sampled repeatedly inside one
  // s-window — the β/overlap terms of equations (14)–(15) must kick in.
  const data::Dataset d = make_problem(6, 12, 0.8, 31);
  SolverSpec base = SolverSpec::make("svm");
  base.lambda = 1.0;
  base.max_iterations = 200;
  base.seed = 2;
  const SolveResult ref = solve(d, base);
  // s >> m guarantees many repeats per window.
  const SolveResult got = solve(d, sa_variant(base, 16));
  EXPECT_LT(la::max_rel_diff(ref.alpha, got.alpha), kIterateTol);
}

TEST(SaSvm, PaperScaleSFiveHundredIsStable) {
  // Figure 5 uses s = 500; verify numerical stability at that depth.
  const data::Dataset d = make_problem(60, 20, 0.5, 7);
  SolverSpec base = SolverSpec::make("svm");
  base.lambda = 1.0;
  base.max_iterations = 1000;
  base.trace_every = 500;
  const SolveResult ref = solve(d, base);
  const SolveResult got = solve(d, sa_variant(base, 500));
  EXPECT_LT(la::max_rel_diff(ref.alpha, got.alpha), 1e-8);
  EXPECT_LT(relative_objective_error(
                ref.trace.points.back().objective + 1.0,
                got.trace.points.back().objective + 1.0),
            1e-8);
}

TEST(SaSvm, GapToleranceStopsAtOuterBoundary) {
  const data::Dataset d = make_problem(80, 25, 0.5, 13);
  const SolveResult r = solve(d, SolverSpec::make("sa-svm")
                                     .with_lambda(1.0)
                                     .with_loss(SvmLoss::kL2)
                                     .with_max_iterations(100000)
                                     .with_trace_every(64)
                                     .with_gap_tolerance(1e-3)
                                     .with_s(64));
  EXPECT_LT(r.trace.iterations_run, 100000u);
  EXPECT_LE(r.trace.points.back().objective, 1e-3);
}

TEST(SaSvm, CommunicationRoundsReducedByFactorS) {
  const data::Dataset d = make_problem(48, 32, 0.4, 17);
  SolverSpec base = SolverSpec::make("svm");
  base.lambda = 1.0;
  base.max_iterations = 64;

  const int ranks = 4;
  const data::Partition cols =
      data::Partition::block(d.num_features(), ranks);

  dist::CommStats ref_stats, sa_stats;
  {
    const auto stats =
        dist::run_distributed(ranks, [&](dist::Communicator& comm) {
          make_solver(comm, d, cols, base)->run();
        });
    ref_stats = stats[0];
  }
  {
    const SolverSpec sa = sa_variant(base, 8);
    const auto stats =
        dist::run_distributed(ranks, [&](dist::Communicator& comm) {
          make_solver(comm, d, cols, sa)->run();
        });
    sa_stats = stats[0];
  }
  // 64 iterations: non-SA does 64 solver collectives + 1 final assembly;
  // SA does 8 + 1.
  EXPECT_EQ(ref_stats.collectives, 65u);
  EXPECT_EQ(sa_stats.collectives, 9u);
  EXPECT_GT(sa_stats.words, ref_stats.words);
}

TEST(SaSvm, SEqualsOneMatchesTightly) {
  const data::Dataset d = make_problem(40, 20, 0.5, 19);
  SolverSpec base = SolverSpec::make("svm");
  base.lambda = 1.0;
  base.max_iterations = 150;
  const SolveResult ref = solve(d, base);
  const SolveResult got = solve(d, sa_variant(base, 1));
  EXPECT_LT(la::max_rel_diff(ref.alpha, got.alpha), 1e-13);
}

TEST(SaSvm, AccuracyMatchesNonSa) {
  const data::Dataset d = make_problem(100, 30, 0.4, 37);
  SolverSpec base = SolverSpec::make("svm");
  base.lambda = 1.0;
  base.loss = SvmLoss::kL2;
  base.max_iterations = 3000;
  const SolveResult ref = solve(d, base);
  const SolveResult got = solve(d, sa_variant(base, 50));
  EXPECT_DOUBLE_EQ(svm_accuracy(d.a, d.b, ref.x),
                   svm_accuracy(d.a, d.b, got.x));
}

TEST(SaSvm, RejectsZeroS) {
  const data::Dataset d = make_problem(10, 5, 0.5, 1);
  EXPECT_THROW(solve(d, SolverSpec::make("sa-svm").with_s(0)),
               sa::PreconditionError);
}

}  // namespace
}  // namespace sa::core
