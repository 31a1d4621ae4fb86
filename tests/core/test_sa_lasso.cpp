// The central invariant of the paper: SA variants (Algorithm 2) produce
// the SAME iterate sequence as the standard methods (Algorithm 1) up to
// floating-point rearrangement error (paper §III and Table III).
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/objective.hpp"
#include "core/registry.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"
#include "io/snapshot.hpp"
#include "la/vector_ops.hpp"

namespace sa::core {
namespace {

data::Dataset make_problem(std::size_t m, std::size_t n, double density,
                           std::uint64_t seed) {
  data::RegressionConfig cfg;
  cfg.num_points = m;
  cfg.num_features = n;
  cfg.density = density;
  cfg.support_size = std::max<std::size_t>(1, n / 6);
  cfg.noise_sigma = 0.02;
  cfg.seed = seed;
  return data::make_regression(cfg).dataset;
}

/// Tolerance for SA-vs-non-SA agreement.  The paper reports final relative
/// objective errors at machine precision (~1e-16); iterate-level agreement
/// accumulates rounding over H iterations, so we allow a small multiple.
constexpr double kIterateTol = 1e-9;

/// The synchronization-avoiding variant of a classical lasso spec.
SolverSpec sa_variant(SolverSpec spec, std::size_t s) {
  spec.algorithm = "sa-lasso";
  spec.s = s;
  return spec;
}

struct EquivalenceCase {
  std::size_t mu;     // block size µ
  std::size_t s;      // unrolling depth
  bool accelerated;
  double density;
};

void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << (c.accelerated ? "acc" : "plain") << "_mu" << c.mu << "_s" << c.s
      << "_d" << c.density;
}

class SaEquivalenceSweep : public ::testing::TestWithParam<EquivalenceCase> {
};

TEST_P(SaEquivalenceSweep, FinalIterateMatchesNonSa) {
  const EquivalenceCase c = GetParam();
  const data::Dataset d = make_problem(48, 30, c.density, 21);

  SolverSpec base = SolverSpec::make("lasso");
  base.lambda = 0.05;
  base.block_size = c.mu;
  base.accelerated = c.accelerated;
  base.max_iterations = 120;
  base.seed = 99;

  const SolveResult ref = solve(d, base);

  const SolveResult got = solve(d, sa_variant(base, c.s));

  EXPECT_LT(la::max_rel_diff(ref.x, got.x), kIterateTol);
}

TEST_P(SaEquivalenceSweep, FinalObjectiveAtMachinePrecision) {
  // The paper's Table III criterion: |f_nonSA − f_SA| / f_nonSA ≈ ε.
  const EquivalenceCase c = GetParam();
  const data::Dataset d = make_problem(40, 24, c.density, 5);

  SolverSpec base = SolverSpec::make("lasso");
  base.lambda = 0.1;
  base.block_size = c.mu;
  base.accelerated = c.accelerated;
  base.max_iterations = 150;
  base.seed = 3;
  base.trace_every = 150;

  const double f_ref = solve(d, base).trace.final_objective();
  const double f_sa =
      solve(d, sa_variant(base, c.s)).trace.final_objective();
  EXPECT_LT(relative_objective_error(f_ref, f_sa), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    MuSCross, SaEquivalenceSweep,
    ::testing::Values(
        // Plain CD/BCD, sparse data
        EquivalenceCase{1, 2, false, 0.3},
        EquivalenceCase{1, 8, false, 0.3},
        EquivalenceCase{4, 3, false, 0.3},
        EquivalenceCase{8, 5, false, 0.3},
        // Plain, dense data (dense staged-view path)
        EquivalenceCase{1, 4, false, 1.0},
        EquivalenceCase{4, 8, false, 1.0},
        // Accelerated, sparse
        EquivalenceCase{1, 2, true, 0.3},
        EquivalenceCase{1, 16, true, 0.3},
        EquivalenceCase{4, 4, true, 0.3},
        EquivalenceCase{8, 8, true, 0.3},
        // Accelerated, dense
        EquivalenceCase{2, 6, true, 1.0},
        EquivalenceCase{8, 2, true, 1.0}));

TEST(SaLasso, SEqualsOneMatchesNonSaTightly) {
  // s = 1 performs the identical computation schedule; agreement should be
  // essentially exact.
  const data::Dataset d = make_problem(30, 20, 0.5, 17);
  SolverSpec base = SolverSpec::make("lasso");
  base.lambda = 0.05;
  base.block_size = 2;
  base.accelerated = true;
  base.max_iterations = 80;
  const SolveResult ref = solve(d, base);
  const SolveResult got = solve(d, sa_variant(base, 1));
  EXPECT_LT(la::max_rel_diff(ref.x, got.x), 1e-13);
}

TEST(SaLasso, HugeSMatchesToo) {
  // The paper demonstrates s = 1000 numerical stability (Figure 2); here a
  // single outer iteration covers the whole run.
  const data::Dataset d = make_problem(36, 18, 0.4, 29);
  SolverSpec base = SolverSpec::make("lasso");
  base.lambda = 0.08;
  base.block_size = 1;
  base.accelerated = true;
  base.max_iterations = 100;
  const SolveResult ref = solve(d, base);
  // s > H: a single outer iteration, tail-truncated.
  const SolveResult got = solve(d, sa_variant(base, 1000));
  EXPECT_LT(la::max_rel_diff(ref.x, got.x), 1e-9);
}

TEST(SaLasso, TailIterationsHandledWhenHNotDivisibleByS) {
  const data::Dataset d = make_problem(30, 15, 0.6, 31);
  SolverSpec base = SolverSpec::make("lasso");
  base.lambda = 0.05;
  base.block_size = 2;
  base.accelerated = false;
  base.max_iterations = 103;  // 103 = 12·8 + 7
  const SolveResult ref = solve(d, base);
  const SolveResult got = solve(d, sa_variant(base, 8));
  EXPECT_EQ(got.trace.iterations_run, 103u);
  EXPECT_LT(la::max_rel_diff(ref.x, got.x), kIterateTol);
}

TEST(SaLasso, ElasticNetPenaltyEquivalence) {
  const data::Dataset d = make_problem(40, 22, 0.5, 41);
  SolverSpec base = SolverSpec::make("lasso");
  base.penalty = Penalty::kElasticNet;
  base.lambda = 0.1;
  base.elastic_net_l1 = 0.6;
  base.elastic_net_l2 = 0.4;
  base.block_size = 3;
  base.accelerated = true;
  base.max_iterations = 90;
  const SolveResult ref = solve(d, base);
  const SolveResult got = solve(d, sa_variant(base, 6));
  EXPECT_LT(la::max_rel_diff(ref.x, got.x), kIterateTol);
}

TEST(SaLasso, CommunicationRoundsReducedByFactorS) {
  // The headline claim: L drops by s while W grows.  Verify on the metered
  // counters of a 4-rank run.
  const data::Dataset d = make_problem(64, 24, 0.4, 55);
  SolverSpec base = SolverSpec::make("lasso");
  base.lambda = 0.05;
  base.block_size = 2;
  base.accelerated = true;
  base.max_iterations = 64;

  const int ranks = 4;
  const data::Partition rows = data::Partition::block(d.num_points(), ranks);

  dist::CommStats ref_stats, sa_stats;
  {
    const auto stats = dist::run_distributed(ranks, [&](dist::Communicator& comm) {
      make_solver(comm, d, rows, base)->run();
    });
    ref_stats = stats[0];
  }
  {
    const SolverSpec sa = sa_variant(base, 8);
    const auto stats = dist::run_distributed(ranks, [&](dist::Communicator& comm) {
      make_solver(comm, d, rows, sa)->run();
    });
    sa_stats = stats[0];
  }
  // Latency: exactly H vs H/s collectives, log2(P) rounds each — the
  // paper's Table I contrast O(H log P) vs O((H/s) log P).
  EXPECT_EQ(ref_stats.collectives, 64u);
  EXPECT_EQ(sa_stats.collectives, 8u);
  EXPECT_EQ(ref_stats.messages, 8u * sa_stats.messages);
  EXPECT_GT(sa_stats.words, ref_stats.words);  // bandwidth traded away
}

TEST(SaLasso, RejectsZeroS) {
  const data::Dataset d = make_problem(20, 10, 0.5, 1);
  EXPECT_THROW(solve(d, SolverSpec::make("sa-lasso").with_s(0)),
               sa::PreconditionError);
}

TEST(SaLasso, WarmStartResidualIsTheRowKernelBitwise) {
  // Each rank computes z̃ = A·x0 − b over its rows with the CSR row
  // kernel.  Rows are independent, so every entry must be bitwise the
  // whole matrix's spmv, at any rank count; z̃ is read back from the
  // snapshot taken before the first round (sparse and dense blocks).
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const double density : {0.1, 0.5}) {
    const data::Dataset d = make_problem(45, 20, density, 9);
    std::vector<double> x0(d.num_features());
    for (std::size_t j = 0; j < x0.size(); ++j)
      x0[j] = 0.3 * std::sin(1.0 + static_cast<double>(j));
    std::vector<double> want(d.num_points());
    d.a.spmv(x0, want);
    for (std::size_t i = 0; i < want.size(); ++i)
      want[i] = (want[i] - d.b[i]) + 0.0;  // gather_full's +0.0
    const SolverSpec spec = SolverSpec::make("sa-lasso")
                                .with_lambda(0.05)
                                .with_block_size(2)
                                .with_acceleration(true)
                                .with_warm_start(x0);
    for (const int ranks : {1, 3}) {
      const data::Partition rows = partition_for_ranks(d, spec, ranks);
      std::vector<std::uint8_t> image;
      dist::run_distributed(ranks, [&](dist::Communicator& comm) {
        const std::unique_ptr<Solver> solver =
            make_solver(comm, d, rows, spec);
        std::vector<std::uint8_t> mine = solver->snapshot();
        if (comm.rank() == 0) image = std::move(mine);
      });
      const io::SnapshotReader snap = io::SnapshotReader::parse(image);
      const std::span<const double> got =
          snap.doubles("lasso/z_img", d.num_points());
      for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(bits(got[i]), bits(want[i]))
            << "density " << density << " P " << ranks << " row " << i;
    }
  }
}

TEST(SaLasso, TraceAlignsToOuterBoundaries) {
  const data::Dataset d = make_problem(30, 15, 0.5, 2);
  const SolveResult r = solve(d, SolverSpec::make("sa-lasso")
                                     .with_lambda(0.05)
                                     .with_max_iterations(40)
                                     .with_trace_every(10)
                                     .with_s(4));
  ASSERT_GE(r.trace.points.size(), 2u);
  for (const TracePoint& p : r.trace.points)
    EXPECT_EQ(p.iteration % 4, 0u) << "trace points land on outer boundaries";
}

}  // namespace
}  // namespace sa::core

namespace sa::core {
namespace {

TEST(SaLasso, MetersReplicatedInnerLoopWork) {
  // The SA inner loop runs redundantly on every rank: its cross-term
  // corrections and eigenvalue solves must land in replicated_flops, not
  // in the data-parallel flops counter.
  const data::Dataset d = make_problem(40, 20, 0.5, 61);
  const SolveResult r = solve(d, SolverSpec::make("sa-lasso")
                                     .with_lambda(0.05)
                                     .with_block_size(2)
                                     .with_acceleration(true)
                                     .with_max_iterations(32)
                                     .with_s(8));
  EXPECT_GT(r.stats.replicated_flops, 0u);
  EXPECT_GT(r.stats.flops, 0u);
}

TEST(SaLasso, ReplicatedWorkGrowsWithS) {
  // Cross-term corrections cost O(s²µ²) per outer loop — the saturation
  // mechanism for very large s.
  const data::Dataset d = make_problem(40, 20, 0.5, 62);
  std::size_t previous = 0;
  for (std::size_t s : {2, 8, 32}) {
    const SolveResult r = solve(d, SolverSpec::make("sa-lasso")
                                       .with_lambda(0.05)
                                       .with_block_size(2)
                                       .with_acceleration(true)
                                       .with_max_iterations(64)
                                       .with_s(s));
    EXPECT_GT(r.stats.replicated_flops, previous);
    previous = r.stats.replicated_flops;
  }
}

}  // namespace
}  // namespace sa::core
