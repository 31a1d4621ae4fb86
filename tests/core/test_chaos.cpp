// Chaos conformance suite for the fault-injection plane and the
// deadline/retry recovery loop.
//
// The core guarantee: for every id in registered_algorithms(), serial and
// 4-rank, a solve that survives a seeded fault schedule — a delayed rank,
// a stalled collective caught by the round deadline, a corrupted
// reduction caught by the checksum — finishes bit-for-bit identical to
// the same solve with no faults injected: trace objectives and
// iterations, solution, duals, stop reason, and the metered counters
// (including `collectives`, which pins exactly one collective per
// SUCCESSFUL round — replayed rounds re-charge from the rollback point,
// never double-bill).  The fault counters themselves are measured, not
// replayed, and are asserted separately.
//
// Negative paths: retries exhausted by a repeating fault, detection-only
// specs (deadline armed, no retries) surfacing the typed failure, and
// recovery from a mid-solve checkpoint image rather than round 0.
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/registry.hpp"
#include "data/synthetic.hpp"
#include "dist/fault.hpp"
#include "io/snapshot.hpp"

namespace sa::core {
namespace {

data::Dataset regression_problem() {
  data::RegressionConfig cfg;
  cfg.num_points = 64;
  cfg.num_features = 28;
  cfg.density = 0.4;
  cfg.support_size = 5;
  cfg.noise_sigma = 0.02;
  cfg.seed = 91;
  return data::make_regression(cfg).dataset;
}

data::Dataset classification_problem() {
  data::ClassificationConfig cfg;
  cfg.num_points = 56;
  cfg.num_features = 36;
  cfg.density = 0.4;
  cfg.seed = 92;
  return data::make_classification(cfg);
}

const data::Dataset& dataset_for(const SolverSpec& spec) {
  static const data::Dataset regression = regression_problem();
  static const data::Dataset classification = classification_problem();
  return spec.family() == SolverFamily::kSvm ? classification : regression;
}

/// Fault-tolerant conformance spec: every stopping criterion armed (so
/// the full trailer schema — objective, stop flags, checksum — rides
/// every round) plus retries and a round deadline.  Backoff stays 0 so
/// the suite never sleeps.
SolverSpec chaos_spec(const std::string& id) {
  SolverSpec spec = SolverSpec::make(id);
  spec.max_iterations = 240;
  spec.trace_every = 60;
  spec.seed = 7;
  spec.s = 4;
  spec.objective_tolerance = 1e-300;
  spec.wall_clock_budget = 1e9;
  spec.max_retries = 4;
  spec.round_deadline = 0.25;
  spec.retry_backoff = 0.0;
  switch (spec.family()) {
    case SolverFamily::kLasso:
      spec.lambda = 0.05;
      spec.block_size = 2;
      spec.accelerated = true;
      break;
    case SolverFamily::kGroupLasso:
      spec.lambda = 0.1;
      spec.groups =
          GroupStructure::uniform(regression_problem().num_features(), 4);
      break;
    case SolverFamily::kSvm:
      spec.lambda = 1.0;
      spec.loss = SvmLoss::kL2;
      spec.gap_tolerance = 1e-300;
      break;
    case SolverFamily::kUnknown:
      break;
  }
  return spec;
}

void expect_bits_equal(std::span<const double> a, std::span<const double> b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << "[" << i << "]: " << a[i] << " vs " << b[i];
  }
}

/// Metered counters only — the measured quantities (wall timers, fault
/// counters) are deliberately excluded; the fault counters are asserted
/// explicitly by the callers instead.
void expect_stats_equal(const dist::CommStats& a, const dist::CommStats& b,
                        const std::string& what) {
  EXPECT_EQ(a.flops, b.flops) << what;
  EXPECT_EQ(a.replicated_flops, b.replicated_flops) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.words, b.words) << what;
  EXPECT_EQ(a.collectives, b.collectives) << what;
  for (std::size_t s = 0; s < dist::kRoundSectionCount; ++s) {
    EXPECT_EQ(a.sections[s].collectives, b.sections[s].collectives)
        << what << " section " << s;
    EXPECT_EQ(a.sections[s].words, b.sections[s].words)
        << what << " section " << s;
  }
}

void expect_results_identical(const SolveResult& a, const SolveResult& b,
                              const std::string& what) {
  EXPECT_EQ(a.algorithm, b.algorithm) << what;
  EXPECT_EQ(a.stop_reason, b.stop_reason) << what;
  expect_bits_equal(a.x, b.x, what + ": x");
  expect_bits_equal(a.alpha, b.alpha, what + ": alpha");
  ASSERT_EQ(a.trace.points.size(), b.trace.points.size()) << what;
  for (std::size_t i = 0; i < a.trace.points.size(); ++i) {
    EXPECT_EQ(a.trace.points[i].iteration, b.trace.points[i].iteration)
        << what << " point " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.trace.points[i].objective),
              std::bit_cast<std::uint64_t>(b.trace.points[i].objective))
        << what << " point " << i;
    expect_stats_equal(a.trace.points[i].stats, b.trace.points[i].stats,
                       what + " point stats");
  }
  EXPECT_EQ(a.trace.iterations_run, b.trace.iterations_run) << what;
  expect_stats_equal(a.trace.final_stats, b.trace.final_stats,
                     what + ": final stats");
}

// ---------------------------------------------------------------------
// Survival conformance: every id, serial and 4-rank
// ---------------------------------------------------------------------

// One delayed rank, one deadline-missed collective, one corrupted
// reduction — each in a different early round, culprits seed-derived.
constexpr const char* kChaosSchedule = "1337:delay@1,stall@2,corrupt@3";

void chaos_sweep(int ranks) {
  const dist::FaultPlan plan = dist::FaultPlan::parse(kChaosSchedule);
  for (const std::string& id : registered_algorithms()) {
    SCOPED_TRACE(id + " ranks=" + std::to_string(ranks));
    const SolverSpec spec = chaos_spec(id);
    const data::Dataset& d = dataset_for(spec);

    const SolveResult reference = solve_on_ranks(d, spec, ranks);
    const SolveResult survived = solve_on_ranks(d, spec, ranks, "", &plan);

    expect_results_identical(reference, survived, id + " survived");

    // The failures really happened and are carried through the rollback:
    // the stall tripped the deadline, the corruption tripped the
    // checksum, and each cost one replay.  The delay is recoverable
    // jitter — no failure, no retry.
    EXPECT_EQ(survived.stats.retries, 2u);
    EXPECT_EQ(survived.stats.timeouts, 1u);
    EXPECT_EQ(survived.stats.corruptions, 1u);
    EXPECT_EQ(survived.stats.rank_losses, 0u);
    EXPECT_EQ(reference.stats.retries, 0u);
    EXPECT_EQ(reference.stats.timeouts, 0u);
  }
}

TEST(Chaos, SerialSurvivalIsBitwiseIdenticalForEveryAlgorithm) {
  chaos_sweep(1);
}

TEST(Chaos, FourRankSurvivalIsBitwiseIdenticalForEveryAlgorithm) {
  chaos_sweep(4);
}

TEST(Chaos, RankLossIsSurvivedToo) {
  const dist::FaultPlan plan = dist::FaultPlan::parse("21:lost@1");
  const SolverSpec spec = chaos_spec("sa-lasso");
  const data::Dataset& d = dataset_for(spec);
  const SolveResult reference = solve(d, spec);
  const SolveResult survived = solve(d, spec, "", &plan);
  expect_results_identical(reference, survived, "after lost peer");
  EXPECT_EQ(survived.stats.rank_losses, 1u);
  EXPECT_EQ(survived.stats.retries, 1u);
}

// ---------------------------------------------------------------------
// Retry exhaustion and detection-only modes
// ---------------------------------------------------------------------

TEST(Chaos, RepeatingFaultExhaustsRetriesAndSurfacesTheFailure) {
  // The same corruption listed three times re-fires on every replay;
  // max_retries 2 allows two replays, the third detection escapes.
  SolverSpec spec = chaos_spec("sa-lasso");
  spec.max_retries = 2;
  const dist::FaultPlan plan =
      dist::FaultPlan::parse("7:corrupt@2,corrupt@2,corrupt@2");
  try {
    solve(dataset_for(spec), spec, "", &plan);
    FAIL() << "expected CommFailure";
  } catch (const dist::CommFailure& failure) {
    EXPECT_EQ(failure.kind(), dist::FailureKind::kCorruption);
  }
}

TEST(Chaos, DetectionOnlySpecFailsFastWithATypedTimeout) {
  // round_deadline armed, max_retries 0: detection without recovery.
  SolverSpec spec = chaos_spec("sa-svm");
  spec.max_retries = 0;
  spec.retry_backoff = 0.0;
  const dist::FaultPlan plan = dist::FaultPlan::parse("5:stall@1");
  try {
    solve(dataset_for(spec), spec, "", &plan);
    FAIL() << "expected CommFailure";
  } catch (const dist::CommFailure& failure) {
    EXPECT_EQ(failure.kind(), dist::FailureKind::kTimeout);
  }
}

TEST(Chaos, NoDetectionMeansNoProtection) {
  // Neither retries nor a deadline: the checksum trailer is absent and
  // the corrupted reduction silently changes the result — the contrast
  // that justifies fault_detection().
  SolverSpec spec = chaos_spec("sa-lasso");
  spec.max_retries = 0;
  spec.retry_backoff = 0.0;
  spec.round_deadline = 0.0;
  ASSERT_FALSE(spec.fault_detection());
  const data::Dataset& d = dataset_for(spec);
  // Seed 25 flips a mid-order mantissa bit of a payload word that moves
  // the iterates: the serial wire is the folded payload plus trailer, and
  // a flip of the objective or clock trailer word (or of a +0.0 Gram
  // entry, which becomes a denormal too small to matter) would leave x
  // unchanged — pick a flip that lands.
  const dist::FaultPlan plan = dist::FaultPlan::parse("25:corrupt@3");
  const SolveResult reference = solve(d, spec);
  const SolveResult corrupted = solve(d, spec, "", &plan);
  EXPECT_EQ(corrupted.stats.corruptions, 0u);  // nothing detected it
  bool any_diff = reference.x.size() != corrupted.x.size();
  for (std::size_t i = 0; !any_diff && i < reference.x.size(); ++i)
    any_diff = std::bit_cast<std::uint64_t>(reference.x[i]) !=
               std::bit_cast<std::uint64_t>(corrupted.x[i]);
  EXPECT_TRUE(any_diff) << "the injected corruption had no effect";
}

// ---------------------------------------------------------------------
// Checkpoint-refreshed recovery image
// ---------------------------------------------------------------------

TEST(Chaos, RecoveryFromAMidSolveCheckpointIsBitwiseIdentical) {
  // With checkpointing on, the rollback image is refreshed at every
  // checkpoint: a fault AFTER a checkpoint replays from that checkpoint
  // (not round 0) and still lands on the fault-free result bitwise.
  const std::string path = ::testing::TempDir() + "sa_chaos_ckpt.snap";
  SolverSpec spec = chaos_spec("sa-lasso");
  spec.checkpoint_path = path;
  spec.checkpoint_every = 100;  // checkpoints at iterations 100 and 200
  const data::Dataset& d = dataset_for(spec);

  const SolveResult reference = solve(d, spec);
  // 240 iterations at s=4 → 60 rounds; round 30 ≈ iteration 120, after
  // the first checkpoint refreshed the image.
  const dist::FaultPlan plan = dist::FaultPlan::parse("3:corrupt@30");
  const SolveResult survived = solve(d, spec, "", &plan);
  expect_results_identical(reference, survived, "post-checkpoint fault");
  EXPECT_EQ(survived.stats.retries, 1u);
  EXPECT_EQ(survived.stats.corruptions, 1u);
}

// ---------------------------------------------------------------------
// Spec validation
// ---------------------------------------------------------------------

TEST(Chaos, FaultToleranceSpecIsValidated) {
  SolverSpec spec = chaos_spec("sa-lasso");
  spec.max_retries = 0;
  spec.retry_backoff = 1.0;  // backoff without retries has no effect
  spec.round_deadline = 0.0;
  EXPECT_THROW(solve(dataset_for(spec), spec), PreconditionError);
  spec.retry_backoff = -1.0;
  EXPECT_THROW(solve(dataset_for(spec), spec), PreconditionError);
  spec.retry_backoff = 0.0;
  spec.round_deadline = -0.5;
  EXPECT_THROW(solve(dataset_for(spec), spec), PreconditionError);
}

}  // namespace
}  // namespace sa::core
