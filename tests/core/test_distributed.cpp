// Distributed-consistency integration tests: a P-rank run through the
// thread communicator must produce exactly the P = 1 result, for every
// solver family — the property that makes the thread runtime a faithful
// stand-in for the paper's MPI implementation.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "core/svm.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"
#include "la/vector_ops.hpp"

namespace sa::core {
namespace {

data::Dataset regression_problem() {
  data::RegressionConfig cfg;
  cfg.num_points = 70;
  cfg.num_features = 30;
  cfg.density = 0.4;
  cfg.support_size = 5;
  cfg.seed = 42;
  return data::make_regression(cfg).dataset;
}

data::Dataset classification_problem() {
  data::ClassificationConfig cfg;
  cfg.num_points = 60;
  cfg.num_features = 40;
  cfg.density = 0.4;
  cfg.seed = 42;
  return data::make_classification(cfg);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Runs `spec` traced every 8 iterations on `p` ranks twice: over a plain
/// block partition (agreement with serial to rounding — the partition
/// need not respect the reduction grid) and over partition_for_ranks,
/// whose chunk-aligned blocks must reproduce the serial solution and
/// every trace-point objective bitwise on every rank.  `axis_extent`
/// sizes the block partition (rows for the regression families, features
/// for SVM).
void expect_rank_invariant(const data::Dataset& d, const SolverSpec& spec,
                           int p, std::size_t axis_extent) {
  SolverSpec opt = spec;
  opt.trace_every = 8;
  const SolveResult serial = solve(d, opt);
  ASSERT_FALSE(serial.trace.points.empty());
  for (const bool aligned : {false, true}) {
    SCOPED_TRACE(aligned ? "chunk-aligned partition" : "block partition");
    const data::Partition part =
        aligned ? partition_for_ranks(d, opt, p)
                : data::Partition::block(axis_extent, p);
    std::vector<SolveResult> per_rank(p);
    std::mutex mu;
    dist::run_distributed(p, [&](dist::Communicator& comm) {
      SolveResult r = make_solver(comm, d, part, opt)->run();
      std::scoped_lock lock(mu);
      per_rank[comm.rank()] = std::move(r);
    });
    for (int r = 0; r < p; ++r) {
      SCOPED_TRACE(::testing::Message() << "rank " << r);
      const std::vector<TracePoint>& want = serial.trace.points;
      const std::vector<TracePoint>& got = per_rank[r].trace.points;
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].iteration, want[i].iteration);
        const double a = want[i].objective;
        const double b = got[i].objective;
        if (aligned) {
          EXPECT_TRUE(same_bits({a}, {b})) << "trace point " << i;
        } else {
          EXPECT_LE(std::abs(a - b), 1e-10 * std::max(1.0, std::abs(a)))
              << "trace point " << i;
        }
      }
      if (aligned) {
        EXPECT_TRUE(same_bits(serial.x, per_rank[r].x));
        EXPECT_TRUE(same_bits(serial.alpha, per_rank[r].alpha));
      } else {
        EXPECT_LT(la::max_rel_diff(serial.x, per_rank[r].x), 1e-10);
        if (!serial.alpha.empty()) {
          EXPECT_LT(la::max_rel_diff(serial.alpha, per_rank[r].alpha), 1e-10);
        }
        // Replicated arithmetic: every rank holds the same result.
        EXPECT_TRUE(same_bits(per_rank[r].x, per_rank[0].x));
      }
    }
  }
}

/// (rank count, SolverSpec::reduction_chunk).  Chunk 0 is the automatic
/// 64-chunk policy (35 chunks over 70 rows); chunk 1 gives one chunk per
/// element; chunk 7 gives non-power-of-two grids (10 chunks over 70 rows,
/// 6 over 40 features — fewer chunks than 8 ranks).  P = 3 runs the
/// slotted wire, powers of two the payload wire.
class RankSweep
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {
 protected:
  int ranks() const { return std::get<0>(GetParam()); }
  SolverSpec spec(const char* id) const {
    SolverSpec opt = SolverSpec::make(id);
    opt.reduction_chunk = std::get<1>(GetParam());
    return opt;
  }
};

TEST_P(RankSweep, LassoMatchesSerialExactly) {
  const data::Dataset d = regression_problem();
  SolverSpec opt = spec("lasso");
  opt.lambda = 0.05;
  opt.block_size = 3;
  opt.accelerated = true;
  opt.max_iterations = 60;
  expect_rank_invariant(d, opt, ranks(), d.num_points());
}

TEST_P(RankSweep, SaLassoMatchesSerialExactly) {
  const data::Dataset d = regression_problem();
  SolverSpec opt = spec("sa-lasso");
  opt.lambda = 0.05;
  opt.block_size = 2;
  opt.accelerated = true;
  opt.max_iterations = 48;
  opt.s = 6;
  expect_rank_invariant(d, opt, ranks(), d.num_points());
}

TEST(SaLassoTrace, FourRankObjectiveTraceMatchesSerial) {
  const data::Dataset d = regression_problem();
  SolverSpec opt = SolverSpec::make("sa-lasso");
  opt.lambda = 0.05;
  opt.block_size = 2;
  opt.max_iterations = 48;
  opt.trace_every = 4;
  opt.s = 6;

  const Trace serial = solve(d, opt).trace;
  ASSERT_FALSE(serial.empty());

  const data::Partition rows = data::Partition::block(d.num_points(), 4);
  std::vector<Trace> per_rank(4);
  std::mutex mu;
  dist::run_distributed(4, [&](dist::Communicator& comm) {
    Trace t = make_solver(comm, d, rows, opt)->run().trace;
    std::scoped_lock lock(mu);
    per_rank[comm.rank()] = std::move(t);
  });

  for (int r = 0; r < 4; ++r) {
    ASSERT_EQ(per_rank[r].points.size(), serial.points.size()) << "rank " << r;
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      EXPECT_EQ(per_rank[r].points[i].iteration, serial.points[i].iteration);
      const double a = serial.points[i].objective;
      const double b = per_rank[r].points[i].objective;
      EXPECT_LE(std::abs(a - b), 1e-10 * std::max(1.0, std::abs(a)))
          << "rank " << r << " trace point " << i;
    }
  }
}

TEST_P(RankSweep, SvmMatchesSerialExactly) {
  const data::Dataset d = classification_problem();
  SolverSpec opt = spec("svm");
  opt.lambda = 1.0;
  opt.max_iterations = 150;
  expect_rank_invariant(d, opt, ranks(), d.num_features());
}

TEST_P(RankSweep, SaSvmMatchesSerialExactly) {
  const data::Dataset d = classification_problem();
  SolverSpec opt = spec("sa-svm");
  opt.lambda = 1.0;
  opt.loss = SvmLoss::kL2;
  opt.max_iterations = 120;
  opt.s = 10;
  expect_rank_invariant(d, opt, ranks(), d.num_features());
}

TEST_P(RankSweep, GroupLassoMatchesSerialExactly) {
  const data::Dataset d = regression_problem();
  SolverSpec opt = spec("group-lasso");
  opt.lambda = 0.1;
  opt.groups = GroupStructure::uniform(d.num_features(), 5);
  opt.max_iterations = 80;
  expect_rank_invariant(d, opt, ranks(), d.num_points());
}

TEST_P(RankSweep, SaGroupLassoMatchesSerialExactly) {
  const data::Dataset d = regression_problem();
  SolverSpec opt = spec("sa-group-lasso");
  opt.lambda = 0.1;
  opt.groups = GroupStructure::uniform(d.num_features(), 5);
  opt.max_iterations = 80;
  opt.s = 4;
  expect_rank_invariant(d, opt, ranks(), d.num_points());
}

INSTANTIATE_TEST_SUITE_P(
    RankCountsAndGrids, RankSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 8),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{7})));

// A chunk at or past the extent is the one-chunk grid, SIZE_MAX included
// (its chunk count once wrapped to zero, and every section summed to
// +0.0): the solve must be bitwise the reduction_chunk = extent one, on
// the payload wire (P = 1, 4) and the slotted wire (P = 3).
TEST(ReductionChunk, HugeChunkSolvesAsTheOneChunkGrid) {
  const data::Dataset reg = regression_problem();
  const data::Dataset cls = classification_problem();
  for (const char* id : {"sa-lasso", "sa-svm"}) {
    const bool svm = std::string_view(id) == "sa-svm";
    const data::Dataset& d = svm ? cls : reg;
    SolverSpec opt = SolverSpec::make(id);
    opt.lambda = svm ? 1.0 : 0.05;
    opt.max_iterations = 48;
    opt.s = 4;
    opt.reduction_chunk = svm ? d.num_features() : d.num_points();
    const SolveResult want = solve(d, opt);
    opt.reduction_chunk = std::numeric_limits<std::size_t>::max();
    for (const int p : {1, 3, 4}) {
      SCOPED_TRACE(::testing::Message() << id << " P=" << p);
      const SolveResult got = solve_on_ranks(d, opt, p);
      EXPECT_TRUE(same_bits(want.x, got.x));
      EXPECT_TRUE(same_bits(want.alpha, got.alpha));
      EXPECT_GT(la::nrm2(got.x), 0.0);
    }
  }
}

// The duality-gap margins reduce in blocks of rows (EngineBase::
// grouped_sum); with more points than one block, every trace point must
// still be bitwise the serial one on both wires.
TEST(DistributedTrace, SvmMarginsOverSeveralRowBlocksMatchSerial) {
  data::ClassificationConfig cfg;
  cfg.num_points = 5000;
  cfg.num_features = 40;
  cfg.density = 0.2;
  cfg.seed = 9;
  const data::Dataset d = data::make_classification(cfg);
  SolverSpec opt = SolverSpec::make("sa-svm");
  opt.lambda = 1.0;
  opt.max_iterations = 64;
  opt.trace_every = 16;
  opt.s = 4;
  const Trace serial = solve(d, opt).trace;
  ASSERT_EQ(serial.points.size(), 5u);
  for (const int p : {3, 4}) {
    const Trace got = solve_on_ranks(d, opt, p).trace;
    ASSERT_EQ(got.points.size(), serial.points.size()) << "P=" << p;
    for (std::size_t i = 0; i < serial.points.size(); ++i)
      EXPECT_TRUE(same_bits({serial.points[i].objective},
                            {got.points[i].objective}))
          << "P=" << p << " trace point " << i;
  }
}

TEST(DistributedTrace, ObjectiveEvaluationDoesNotPolluteMetering) {
  const data::Dataset d = regression_problem();
  SolverSpec with_trace = SolverSpec::make("lasso");
  with_trace.lambda = 0.05;
  with_trace.max_iterations = 32;
  with_trace.trace_every = 4;
  SolverSpec no_trace = with_trace;
  no_trace.trace_every = 0;

  const data::Partition rows = data::Partition::block(d.num_points(), 4);
  dist::CommStats traced, untraced;
  {
    const auto stats =
        dist::run_distributed(4, [&](dist::Communicator& comm) {
          make_solver(comm, d, rows, with_trace)->run();
        });
    traced = stats[0];
  }
  {
    const auto stats =
        dist::run_distributed(4, [&](dist::Communicator& comm) {
          make_solver(comm, d, rows, no_trace)->run();
        });
    untraced = stats[0];
  }
  EXPECT_EQ(traced.messages, untraced.messages);
  EXPECT_EQ(traced.words, untraced.words);
  EXPECT_EQ(traced.collectives, untraced.collectives);
}

TEST(DistributedLoadImbalance, UnevenPartitionStillCorrect) {
  // Deliberately skewed partition: rank 0 owns almost everything.
  const data::Dataset d = regression_problem();
  SolverSpec opt = SolverSpec::make("lasso");
  opt.lambda = 0.05;
  opt.max_iterations = 40;
  const SolveResult serial = solve(d, opt);

  const data::Partition rows({0, 60, 65, 70});
  std::vector<std::vector<double>> per_rank(3);
  std::mutex mu;
  dist::run_distributed(3, [&](dist::Communicator& comm) {
    const SolveResult r = make_solver(comm, d, rows, opt)->run();
    std::scoped_lock lock(mu);
    per_rank[comm.rank()] = r.x;
  });
  for (int r = 0; r < 3; ++r)
    EXPECT_LT(la::max_rel_diff(serial.x, per_rank[r]), 1e-10);
}

TEST(DistributedLoadImbalance, EmptyRankBlocksSupported) {
  // More ranks than useful work on some blocks: a rank may own zero rows.
  const data::Dataset d = regression_problem();
  SolverSpec opt = SolverSpec::make("lasso");
  opt.lambda = 0.05;
  opt.max_iterations = 30;
  const SolveResult serial = solve(d, opt);

  const data::Partition rows({0, 70, 70, 70});  // ranks 1,2 empty
  std::vector<std::vector<double>> per_rank(3);
  std::mutex mu;
  dist::run_distributed(3, [&](dist::Communicator& comm) {
    const SolveResult r = make_solver(comm, d, rows, opt)->run();
    std::scoped_lock lock(mu);
    per_rank[comm.rank()] = r.x;
  });
  for (int r = 0; r < 3; ++r)
    EXPECT_LT(la::max_rel_diff(serial.x, per_rank[r]), 1e-10);
}

}  // namespace
}  // namespace sa::core
