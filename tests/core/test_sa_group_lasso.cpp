// SA-Group-Lasso equivalence tests — "sa-group-lasso" must reproduce
// "group-lasso"'s iterate sequence to floating-point tolerance, the same
// invariant the paper establishes for Algorithms 2 and 4.
#include <mutex>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/registry.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"
#include "la/vector_ops.hpp"

namespace sa::core {
namespace {

data::Dataset make_problem(std::uint64_t seed = 42) {
  data::RegressionConfig cfg;
  cfg.num_points = 60;
  cfg.num_features = 24;
  cfg.density = 0.5;
  cfg.support_size = 6;
  cfg.noise_sigma = 0.02;
  cfg.seed = seed;
  return data::make_regression(cfg).dataset;
}

SolverSpec base_spec(const data::Dataset& d, std::size_t group_size) {
  SolverSpec opt = SolverSpec::make("group-lasso");
  opt.lambda = 0.2;
  opt.groups = GroupStructure::uniform(d.num_features(), group_size);
  opt.max_iterations = 200;
  opt.seed = 9;
  return opt;
}

/// The synchronization-avoiding variant of a classical group-lasso spec.
SolverSpec sa_variant(SolverSpec spec, std::size_t s) {
  spec.algorithm = "sa-group-lasso";
  spec.s = s;
  return spec;
}

struct GroupCase {
  std::size_t group_size;
  std::size_t s;
};

class SaGroupLassoSweep : public ::testing::TestWithParam<GroupCase> {};

TEST_P(SaGroupLassoSweep, MatchesNonSaIterates) {
  const GroupCase c = GetParam();
  const data::Dataset d = make_problem();
  const SolverSpec base = base_spec(d, c.group_size);

  const SolveResult ref = solve(d, base);
  const SolveResult got = solve(d, sa_variant(base, c.s));
  EXPECT_LT(la::max_rel_diff(ref.x, got.x), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SaGroupLassoSweep,
    ::testing::Values(GroupCase{1, 4}, GroupCase{3, 2}, GroupCase{3, 16},
                      GroupCase{4, 8}, GroupCase{8, 32}, GroupCase{5, 500},
                      GroupCase{24, 8}));  // one group repeatedly resampled

TEST(SaGroupLasso, RepeatedGroupWithinWindowHandled) {
  // Few groups + deep unrolling: the same group is updated several times
  // per window, exercising the deferred-state overlap path.
  const data::Dataset d = make_problem(7);
  const SolverSpec base = base_spec(d, 12);  // only 2 groups
  const SolveResult ref = solve(d, base);
  const SolveResult got = solve(d, sa_variant(base, 64));
  EXPECT_LT(la::max_rel_diff(ref.x, got.x), 1e-9);
}

TEST(SaGroupLasso, ObjectiveDescends) {
  const data::Dataset d = make_problem();
  const SolveResult r =
      solve(d, sa_variant(base_spec(d, 4).with_trace_every(50), 10));
  ASSERT_GE(r.trace.points.size(), 2u);
  EXPECT_LT(r.trace.points.back().objective,
            r.trace.points.front().objective);
}

TEST(SaGroupLasso, DistributedMatchesSerial) {
  const data::Dataset d = make_problem(3);
  const SolverSpec sa = sa_variant(base_spec(d, 4), 8);
  const SolveResult serial = solve(d, sa);

  const int ranks = 4;
  const data::Partition rows = data::Partition::block(d.num_points(), ranks);
  std::vector<std::vector<double>> per_rank(ranks);
  std::mutex lock;
  dist::run_distributed(ranks, [&](dist::Communicator& comm) {
    const SolveResult r = make_solver(comm, d, rows, sa)->run();
    std::scoped_lock guard(lock);
    per_rank[comm.rank()] = r.x;
  });
  for (int r = 0; r < ranks; ++r)
    EXPECT_LT(la::max_rel_diff(serial.x, per_rank[r]), 1e-10) << "rank " << r;
}

TEST(SaGroupLasso, CommunicationReducedByS) {
  const data::Dataset d = make_problem(5);
  const SolverSpec base = base_spec(d, 4).with_max_iterations(64);

  const int ranks = 2;
  const data::Partition rows = data::Partition::block(d.num_points(), ranks);
  dist::CommStats ref_stats, sa_stats;
  std::mutex lock;
  dist::run_distributed(ranks, [&](dist::Communicator& comm) {
    make_solver(comm, d, rows, base)->run();
    if (comm.rank() == 0) {
      std::scoped_lock guard(lock);
      ref_stats = comm.stats();
    }
  });
  dist::run_distributed(ranks, [&](dist::Communicator& comm) {
    make_solver(comm, d, rows, sa_variant(base, 8))->run();
    if (comm.rank() == 0) {
      std::scoped_lock guard(lock);
      sa_stats = comm.stats();
    }
  });
  EXPECT_EQ(ref_stats.collectives, 64u);
  EXPECT_EQ(sa_stats.collectives, 8u);
  EXPECT_GT(sa_stats.words, ref_stats.words);
}

TEST(SaGroupLasso, RejectsInvalidOptions) {
  const data::Dataset d = make_problem();
  SolverSpec sa = sa_variant(base_spec(d, 4), 0);
  EXPECT_THROW(solve(d, sa), sa::PreconditionError);
  sa.s = 4;
  sa.groups = GroupStructure::uniform(d.num_features() - 1, 4);
  EXPECT_THROW(solve(d, sa), sa::PreconditionError);
}

}  // namespace
}  // namespace sa::core
