// The single-allreduce round plane: every registered solver must pay
// exactly ONE metered collective per outer round — even with every
// stopping criterion enabled simultaneously (objective tolerance +
// wall-clock budget + SVM gap tolerance), serial and 4-rank — and
// enabling the piggy-backed trailer sections must not perturb a single
// bit of the iterates or the traced objectives.  The reduce-wait meter
// must cover the whole round collective, the wait for the slowest rank
// included.  The piggy-backed objective is computed only in the rounds
// the plateau rule reads, and the rule stops where a replay of an
// every-round trace says it must.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"

namespace sa::core {
namespace {

data::Dataset regression_problem() {
  data::RegressionConfig cfg;
  cfg.num_points = 70;
  cfg.num_features = 30;
  cfg.density = 0.4;
  cfg.support_size = 5;
  cfg.noise_sigma = 0.02;
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

bool is_svm(const std::string& id) {
  return id == "svm" || id == "sa-svm";
}

const data::Dataset& dataset_for(const std::string& id) {
  static const data::Dataset regression = regression_problem();
  static const data::Dataset classification = classification_problem();
  return is_svm(id) ? classification : regression;
}

/// A moderate workload for `id`; with_criteria additionally enables every
/// stopping criterion that applies, tuned so none of them actually fires
/// (the solve must still run to max_iterations for the parity check).
SolverSpec spec_for(const std::string& id, bool with_criteria) {
  SolverSpec spec = SolverSpec::make(id)
                        .with_max_iterations(24)
                        .with_trace_every(8)
                        .with_s(6)
                        .with_seed(42);
  if (is_svm(id)) {
    spec.with_lambda(1.0).with_loss(SvmLoss::kL2);
  } else if (id == "group-lasso" || id == "sa-group-lasso") {
    spec.with_lambda(0.1).with_groups(
        GroupStructure::uniform(dataset_for(id).num_features(), 5));
  } else {
    spec.with_lambda(0.05).with_block_size(3).with_acceleration(true);
  }
  if (with_criteria) {
    spec.with_objective_tolerance(1e-300).with_wall_clock_budget(1e9);
    if (is_svm(id)) spec.with_gap_tolerance(1e-300);
  }
  return spec;
}

struct MeteredRun {
  SolveResult result;
  dist::CommStats pre_finish_stats;  ///< counters before finish()/assemble
  std::size_t rounds = 0;            ///< observer-counted outer rounds
};

MeteredRun drive(dist::Communicator& comm, const data::Dataset& d,
                 const data::Partition& part, const SolverSpec& spec) {
  MeteredRun out;
  auto solver = make_solver(comm, d, part, spec);
  solver->set_observer([&](std::size_t) { ++out.rounds; });
  while (!solver->finished()) solver->step(1);
  out.pre_finish_stats = comm.stats();
  out.result = solver->finish();
  return out;
}

class RoundPlane : public ::testing::TestWithParam<std::string> {};

TEST_P(RoundPlane, SerialOneCollectivePerRoundWithAllCriteriaEnabled) {
  const std::string id = GetParam();
  const data::Dataset& d = dataset_for(id);
  dist::SerialComm comm;
  const auto* info = SolverRegistry::instance().find(id);
  ASSERT_NE(info, nullptr);
  const std::size_t extent = info->axis == PartitionAxis::kRows
                                 ? d.num_points()
                                 : d.num_features();
  const MeteredRun run = drive(comm, d, data::Partition::block(extent, 1),
                               spec_for(id, /*with_criteria=*/true));

  ASSERT_GT(run.rounds, 0u);
  // Exactly ONE metered allreduce per outer round: trace instrumentation
  // is snapshot/restore-excluded, the wall budget and the objective
  // tolerance ride the round message as trailer sections.
  EXPECT_EQ(run.pre_finish_stats.collectives, run.rounds);
  EXPECT_EQ(run.result.stop_reason, StopReason::kMaxIterations);

  // Per-section accounting: the Gram triangle rode every round's message;
  // the stop-flag (wall budget) section likewise; the objective section
  // rides for the regression families only (the SVM gap cannot ride).
  const dist::CommStats& s = run.pre_finish_stats;
  EXPECT_EQ(s.section(dist::RoundSection::kGram).collectives, run.rounds);
  EXPECT_EQ(s.section(dist::RoundSection::kDots1).collectives, run.rounds);
  EXPECT_EQ(s.section(dist::RoundSection::kStopFlags).collectives,
            run.rounds);
  EXPECT_EQ(s.section(dist::RoundSection::kObjective).collectives,
            is_svm(id) ? 0u : run.rounds);
}

TEST_P(RoundPlane, FourRankOneCollectivePerRoundWithAllCriteriaEnabled) {
  const std::string id = GetParam();
  const data::Dataset& d = dataset_for(id);
  const auto* info = SolverRegistry::instance().find(id);
  ASSERT_NE(info, nullptr);
  const int p = 4;
  const std::size_t extent = info->axis == PartitionAxis::kRows
                                 ? d.num_points()
                                 : d.num_features();
  const data::Partition part = data::Partition::block(extent, p);

  std::vector<MeteredRun> runs(p);
  std::mutex lock;
  dist::run_distributed(p, [&](dist::Communicator& comm) {
    MeteredRun r = drive(comm, d, part, spec_for(id, true));
    std::scoped_lock guard(lock);
    runs[comm.rank()] = std::move(r);
  });

  const std::size_t rounds_per_collective = dist::collective_rounds(p);
  for (int r = 0; r < p; ++r) {
    ASSERT_GT(runs[r].rounds, 0u);
    EXPECT_EQ(runs[r].pre_finish_stats.collectives, runs[r].rounds)
        << "rank " << r;
    // `messages` counts latency rounds: one collective per outer round ×
    // ceil(log2 P) tree depth.
    EXPECT_EQ(runs[r].pre_finish_stats.messages,
              runs[r].rounds * rounds_per_collective)
        << "rank " << r;
    // The piggy-backed words are on the wire: 1 stop-flag word per round.
    EXPECT_EQ(
        runs[r].pre_finish_stats.section(dist::RoundSection::kStopFlags)
            .words,
        runs[r].rounds * rounds_per_collective)
        << "rank " << r;
    // Replicated results: every rank stops identically.
    EXPECT_EQ(runs[r].result.x, runs[0].result.x) << "rank " << r;
  }
}

TEST_P(RoundPlane, TrailerSectionsDoNotPerturbIteratesOrTrace) {
  const std::string id = GetParam();
  const data::Dataset& d = dataset_for(id);
  const auto* info = SolverRegistry::instance().find(id);
  ASSERT_NE(info, nullptr);
  const std::size_t extent = info->axis == PartitionAxis::kRows
                                 ? d.num_points()
                                 : d.num_features();
  const data::Partition part = data::Partition::block(extent, 1);

  dist::SerialComm c_base, c_crit;
  const MeteredRun base = drive(c_base, d, part, spec_for(id, false));
  const MeteredRun crit = drive(c_crit, d, part, spec_for(id, true));

  // Appending trailer sections to the round message must not change a
  // single bit of the reduced Gram/dot sections — all backends combine
  // element-wise — so the iterates and traced objectives are identical to
  // the criteria-free baseline (the PR 3 behaviour for default specs).
  EXPECT_EQ(base.result.x, crit.result.x);
  EXPECT_EQ(base.result.alpha, crit.result.alpha);
  ASSERT_EQ(base.result.trace.points.size(), crit.result.trace.points.size());
  for (std::size_t i = 0; i < base.result.trace.points.size(); ++i) {
    EXPECT_EQ(base.result.trace.points[i].iteration,
              crit.result.trace.points[i].iteration);
    EXPECT_EQ(base.result.trace.points[i].objective,
              crit.result.trace.points[i].objective);
  }
  EXPECT_EQ(base.result.trace.iterations_run,
            crit.result.trace.iterations_run);
}

INSTANTIATE_TEST_SUITE_P(
    AllSix, RoundPlane,
    ::testing::Values("lasso", "sa-lasso", "group-lasso", "sa-group-lasso",
                      "svm", "sa-svm"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// The piggy-backed objective section lets the regression families stop on
// an objective plateau WITHOUT a trace cadence — impossible before the
// round plane, since the criterion needed the traced objective.
TEST(RoundPlane, ObjectiveToleranceFiresWithTracingOff) {
  const data::Dataset d = regression_problem();
  const SolverSpec spec = SolverSpec::make("sa-lasso")
                              .with_lambda(0.05)
                              .with_block_size(4)
                              .with_s(8)
                              .with_max_iterations(1000000)
                              .with_objective_tolerance(1e-12);
  const SolveResult r = solve(d, spec);
  EXPECT_EQ(r.stop_reason, StopReason::kObjectiveTolerance);
  EXPECT_LT(r.trace.iterations_run, 1000000u);
}

// CI's 8-rank smoke job sets SA_SMOKE_RANKS to sweep the round-plane
// invariant across a wider team than the default 4-rank tests (any rank
// count >= 2 works; the test self-skips when the variable is unset).
TEST(RoundPlane, RankSweepFromEnvironment) {
  const char* env = std::getenv("SA_SMOKE_RANKS");
  const int p = env ? std::atoi(env) : 0;
  if (p < 2) GTEST_SKIP() << "set SA_SMOKE_RANKS >= 2 to run the sweep";
  for (const std::string& id : registered_algorithms()) {
    const data::Dataset& d = dataset_for(id);
    const auto* info = SolverRegistry::instance().find(id);
    ASSERT_NE(info, nullptr);
    const std::size_t extent = info->axis == PartitionAxis::kRows
                                   ? d.num_points()
                                   : d.num_features();
    const data::Partition part = data::Partition::block(extent, p);
    std::vector<MeteredRun> runs(p);
    std::mutex lock;
    dist::run_distributed(p, [&](dist::Communicator& comm) {
      MeteredRun r = drive(comm, d, part, spec_for(id, true));
      std::scoped_lock guard(lock);
      runs[comm.rank()] = std::move(r);
    });
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(runs[r].pre_finish_stats.collectives, runs[r].rounds)
          << id << " rank " << r;
      EXPECT_EQ(runs[r].result.x, runs[0].result.x) << id << " rank " << r;
    }
  }
}

// The wall budget rides the stop-flag section: stopping on it must not
// add a single collective beyond the rounds themselves.
TEST(RoundPlane, WallBudgetStopCostsZeroExtraCollectives) {
  const data::Dataset d = regression_problem();
  const SolverSpec spec = SolverSpec::make("sa-lasso")
                              .with_lambda(0.05)
                              .with_s(8)
                              .with_max_iterations(100000000)
                              .with_wall_clock_budget(0.02);
  dist::SerialComm comm;
  const MeteredRun run =
      drive(comm, d, data::Partition::block(d.num_points(), 1), spec);
  EXPECT_EQ(run.result.stop_reason, StopReason::kWallClockBudget);
  EXPECT_EQ(run.pre_finish_stats.collectives, run.rounds);
}

// Rank 1 arrives late to each round's collective; rank 0 spends that time
// in the collective's entry barrier, so its reduce-wait meter must show it.
TEST(RoundPlane, WaitMeterCoversTheWaitForTheSlowestRank) {
  const data::Dataset d = regression_problem();
  constexpr std::size_t kLateRounds = 10;
  constexpr double kLateSeconds = 0.005;
  // One round more than the late ones: the sleep after round k delays
  // round k + 1's collective.
  const SolverSpec spec = SolverSpec::make("lasso")
                              .with_lambda(0.05)
                              .with_max_iterations(kLateRounds + 1);
  const data::Partition part = data::Partition::block(d.num_points(), 2);
  dist::ThreadTeam team(2);
  const std::vector<dist::CommStats> stats =
      team.run([&](dist::ThreadComm& comm) {
        auto solver = make_solver(comm, d, part, spec);
        std::size_t rounds = 0;
        solver->set_observer([&](std::size_t) {
          if (comm.rank() == 1 && ++rounds <= kLateRounds)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(kLateSeconds));
        });
        while (!solver->finished()) solver->step(1);
      });
  EXPECT_GE(stats[0].wait_seconds, 0.9 * kLateRounds * kLateSeconds);
}

/// Drives `spec` on a P-rank team over `d`'s rows; one MeteredRun per rank.
std::vector<MeteredRun> drive_ranks(int p, const data::Dataset& d,
                                    const SolverSpec& spec) {
  const data::Partition part = data::Partition::block(d.num_points(), p);
  std::vector<MeteredRun> runs(p);
  std::mutex lock;
  dist::run_distributed(p, [&](dist::Communicator& comm) {
    MeteredRun r = drive(comm, d, part, spec);
    std::scoped_lock guard(lock);
    runs[comm.rank()] = std::move(r);
  });
  return runs;
}

SolverSpec plateau_spec(bool accelerated, std::size_t s, std::size_t h,
                        std::size_t trace_every) {
  return SolverSpec::make("sa-lasso")
      .with_lambda(0.05)
      .with_block_size(3)
      .with_acceleration(accelerated)
      .with_s(s)
      .with_seed(7)
      .with_max_iterations(h)
      .with_trace_every(trace_every);
}

// The plateau rule reads the piggy-backed objective once per trace_every
// iterations, so only those rounds compute its partial: a tolerance that
// never fires must cost exactly one residual norm (2·m_loc flops) and one
// penalty (2·n replicated flops) per read round on top of the
// criterion-free solve, not one per round.
TEST(RoundPlane, RoundObjectiveIsComputedOnlyInReadRounds) {
  const data::Dataset d = regression_problem();
  constexpr std::size_t kS = 4;
  constexpr std::size_t kT = 4 * kS;
  constexpr std::size_t kH = 102;  // the last round runs 2 iterations
  // The pre-round iterations the rule reads: 0, T, 2T, … below H.
  std::size_t reads = 0;
  for (std::size_t i = 0; i < kH; i += kT) ++reads;
  ASSERT_EQ(reads, 7u);
  for (const bool accelerated : {false, true}) {
    for (const int p : {1, 2}) {
      SCOPED_TRACE(::testing::Message()
                   << "accelerated " << accelerated << " P " << p);
      const SolverSpec base = plateau_spec(accelerated, kS, kH, kT);
      SolverSpec with_tol = base;
      with_tol.with_objective_tolerance(1e-300);
      const std::vector<MeteredRun> plain = drive_ranks(p, d, base);
      const std::vector<MeteredRun> tol = drive_ranks(p, d, with_tol);
      const data::Partition part = data::Partition::block(d.num_points(), p);
      for (int r = 0; r < p; ++r) {
        ASSERT_EQ(tol[r].result.stop_reason, StopReason::kMaxIterations);
        EXPECT_EQ(tol[r].result.x, plain[r].result.x) << "rank " << r;
        const std::size_t m_loc = part.end(r) - part.begin(r);
        EXPECT_EQ(tol[r].pre_finish_stats.flops -
                      plain[r].pre_finish_stats.flops,
                  reads * 2 * m_loc)
            << "rank " << r;
        EXPECT_EQ(tol[r].pre_finish_stats.replicated_flops -
                      plain[r].pre_finish_stats.replicated_flops,
                  reads * 2 * d.num_features())
            << "rank " << r;
      }
    }
  }
}

// An oracle for the plateau stop.  Solve B traces every round boundary
// (trace_every = s) without a tolerance; a trace point's objective is the
// iterate entering the next round, folded through the same grouping as
// the round's partial.  Replaying the plateau rule over B's trace — a
// sample at pre-round iterations 0, T, 2T, …, the solve stopping after
// the round whose sample plateaus — must give solve A's stop iteration,
// and A's x must be bitwise B's iterate there.
TEST(RoundPlane, PlateauStopMatchesAReplayOfTheTrace) {
  const data::Dataset d = regression_problem();
  constexpr std::size_t kS = 4;
  constexpr std::size_t kT = 3 * kS;
  constexpr std::size_t kH = 4000;
  constexpr double kTol = 1e-7;
  for (const bool accelerated : {false, true}) {
    for (const int p : {1, 3}) {
      SCOPED_TRACE(::testing::Message()
                   << "accelerated " << accelerated << " P " << p);
      const std::vector<MeteredRun> b =
          drive_ranks(p, d, plateau_spec(accelerated, kS, kH, kS));
      const std::vector<TracePoint>& points = b[0].result.trace.points;
      std::size_t stop = 0;
      double prev = points[0].objective;
      for (std::size_t i = kT; i < kH && stop == 0; i += kT) {
        ASSERT_LT(i / kS, points.size());
        ASSERT_EQ(points[i / kS].iteration, i);
        const double objective = points[i / kS].objective;
        if (std::abs(prev - objective) <=
            kTol * std::max(1.0, std::abs(objective)))
          stop = i + kS;
        prev = objective;
      }
      // The tolerance must fire, and not at the first comparison.
      ASSERT_GT(stop, 2 * kT);

      SolverSpec spec_a = plateau_spec(accelerated, kS, kH, kT);
      spec_a.with_objective_tolerance(kTol);
      const std::vector<MeteredRun> a = drive_ranks(p, d, spec_a);
      const std::vector<MeteredRun> b_at_stop =
          drive_ranks(p, d, plateau_spec(accelerated, kS, stop, kS));
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(a[r].result.stop_reason, StopReason::kObjectiveTolerance)
            << "rank " << r;
        EXPECT_EQ(a[r].result.trace.iterations_run, stop) << "rank " << r;
        EXPECT_EQ(a[r].result.x, b_at_stop[r].result.x) << "rank " << r;
      }
    }
  }
}

}  // namespace
}  // namespace sa::core
