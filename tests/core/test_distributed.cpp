// Distributed-consistency integration tests: a P-rank run through the
// thread communicator must produce exactly the P = 1 result, for every
// solver family — the property that makes the thread runtime a faithful
// stand-in for the paper's MPI implementation.
#include <cmath>
#include <mutex>
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

class RankSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankSweep, LassoMatchesSerialExactly) {
  const int p = GetParam();
  const data::Dataset d = regression_problem();
  SolverSpec opt = SolverSpec::make("lasso");
  opt.lambda = 0.05;
  opt.block_size = 3;
  opt.accelerated = true;
  opt.max_iterations = 60;

  const SolveResult serial = solve(d, opt);

  const data::Partition rows = data::Partition::block(d.num_points(), p);
  std::vector<std::vector<double>> per_rank(p);
  std::mutex mu;
  dist::run_distributed(p, [&](dist::Communicator& comm) {
    const SolveResult r = make_solver(comm, d, rows, opt)->run();
    std::scoped_lock lock(mu);
    per_rank[comm.rank()] = r.x;
  });

  for (int r = 0; r < p; ++r) {
    // Distributed dots sum per-rank partials in fixed order; agreement with
    // the serial sum is to rounding, and the result is identical on all
    // ranks (replicated arithmetic).
    EXPECT_LT(la::max_rel_diff(serial.x, per_rank[r]), 1e-10) << "rank " << r;
    EXPECT_EQ(per_rank[r], per_rank[0]);
  }
}

TEST_P(RankSweep, SaLassoMatchesSerialExactly) {
  const int p = GetParam();
  const data::Dataset d = regression_problem();
  SolverSpec opt = SolverSpec::make("sa-lasso");
  opt.lambda = 0.05;
  opt.block_size = 2;
  opt.accelerated = true;
  opt.max_iterations = 48;
  opt.s = 6;

  const SolveResult serial = solve(d, opt);
  const data::Partition rows = data::Partition::block(d.num_points(), p);
  std::vector<std::vector<double>> per_rank(p);
  std::mutex mu;
  dist::run_distributed(p, [&](dist::Communicator& comm) {
    const SolveResult r = make_solver(comm, d, rows, opt)->run();
    std::scoped_lock lock(mu);
    per_rank[comm.rank()] = r.x;
  });
  for (int r = 0; r < p; ++r)
    EXPECT_LT(la::max_rel_diff(serial.x, per_rank[r]), 1e-10) << "rank " << r;
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
  const int p = GetParam();
  const data::Dataset d = classification_problem();
  SolverSpec opt = SolverSpec::make("svm");
  opt.lambda = 1.0;
  opt.max_iterations = 150;

  const SolveResult serial = solve(d, opt);
  const data::Partition cols = data::Partition::block(d.num_features(), p);
  std::vector<SolveResult> per_rank(p);
  std::mutex mu;
  dist::run_distributed(p, [&](dist::Communicator& comm) {
    SolveResult r = make_solver(comm, d, cols, opt)->run();
    std::scoped_lock lock(mu);
    per_rank[comm.rank()] = std::move(r);
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_LT(la::max_rel_diff(serial.alpha, per_rank[r].alpha), 1e-10);
    EXPECT_LT(la::max_rel_diff(serial.x, per_rank[r].x), 1e-10);
  }
}

TEST_P(RankSweep, SaSvmMatchesSerialExactly) {
  const int p = GetParam();
  const data::Dataset d = classification_problem();
  SolverSpec opt = SolverSpec::make("sa-svm");
  opt.lambda = 1.0;
  opt.loss = SvmLoss::kL2;
  opt.max_iterations = 120;
  opt.s = 10;

  const SolveResult serial = solve(d, opt);
  const data::Partition cols = data::Partition::block(d.num_features(), p);
  std::vector<SolveResult> per_rank(p);
  std::mutex mu;
  dist::run_distributed(p, [&](dist::Communicator& comm) {
    SolveResult r = make_solver(comm, d, cols, opt)->run();
    std::scoped_lock lock(mu);
    per_rank[comm.rank()] = std::move(r);
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_LT(la::max_rel_diff(serial.alpha, per_rank[r].alpha), 1e-10);
    EXPECT_LT(la::max_rel_diff(serial.x, per_rank[r].x), 1e-10);
  }
}

TEST_P(RankSweep, GroupLassoMatchesSerialExactly) {
  const int p = GetParam();
  const data::Dataset d = regression_problem();
  SolverSpec opt = SolverSpec::make("group-lasso");
  opt.lambda = 0.1;
  opt.groups = GroupStructure::uniform(d.num_features(), 5);
  opt.max_iterations = 80;

  const SolveResult serial = solve(d, opt);
  const data::Partition rows = data::Partition::block(d.num_points(), p);
  std::vector<std::vector<double>> per_rank(p);
  std::mutex mu;
  dist::run_distributed(p, [&](dist::Communicator& comm) {
    const SolveResult r = make_solver(comm, d, rows, opt)->run();
    std::scoped_lock lock(mu);
    per_rank[comm.rank()] = r.x;
  });
  for (int r = 0; r < p; ++r)
    EXPECT_LT(la::max_rel_diff(serial.x, per_rank[r]), 1e-10) << "rank " << r;
}

INSTANTIATE_TEST_SUITE_P(RankCounts, RankSweep, ::testing::Values(2, 3, 4, 8));

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
