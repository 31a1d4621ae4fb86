// Bitwise-resume conformance suite for the snapshot subsystem.
//
// The core guarantee: for every id in registered_algorithms(), a solve
// that is interrupted at round k, snapshotted, and resumed into a FRESH
// Solver produces a remaining trace and final solution that are
// bit-for-bit identical to an uninterrupted run — with every stopping
// criterion enabled.  Since the fixed reduction grouping landed, the
// guarantee is RANK-COUNT INVARIANT: a snapshot taken on P ranks resumes
// on Q ranks with the same bits for every (P, Q) in {1,2,4,8}², and
// uninterrupted traces themselves match bitwise across rank counts.
// Resuming the last checkpoint is the library's one recovery path, so a
// small solve per id is checkpointed after EVERY round at P ∈ {1, 4} and
// each checkpoint resumed at Q ∈ {1, 3, 4}.
// Wall-clock readings and CommStats (whose message/word counts legitimately
// scale with the rank count) are the measured — not replayed — quantities
// excluded from cross-rank-count comparisons.
//
// Negative paths: truncated images, flipped bytes (checksum), wrong
// version, pre-grouping (version 2) files, doctored grouping sections,
// and wrong-algorithm snapshots are rejected with descriptive
// SnapshotErrors and leave the target solver untouched (it still finishes
// bitwise-identically to a never-restored run).  Every single-byte flip
// and every truncation offset of one small image is tried exhaustively.
#include "io/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/registry.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"

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

/// Every stopping criterion enabled: the tolerances are tight enough to
/// stay inactive over H iterations (so the parity comparison sees the
/// whole run) but the piggy-backed machinery is exercised on every round.
SolverSpec conformance_spec(const std::string& id) {
  SolverSpec spec = SolverSpec::make(id);
  spec.max_iterations = 240;
  spec.trace_every = 60;
  spec.seed = 7;
  spec.s = 4;
  spec.objective_tolerance = 1e-300;
  spec.wall_clock_budget = 1e9;
  switch (spec.family()) {
    case SolverFamily::kLasso:
      spec.lambda = 0.05;
      spec.block_size = 2;
      spec.accelerated = true;
      break;
    case SolverFamily::kGroupLasso:
      spec.lambda = 0.1;
      spec.groups = GroupStructure::uniform(
          regression_problem().num_features(), 4);
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

data::Partition partition_for(const SolverSpec& spec,
                              const data::Dataset& d, int ranks) {
  // The chunk-grid-aligned partition solve_on_ranks builds: every
  // reduction chunk is single-owner, which is what makes the chunked
  // round sums — and the resumes below — rank-count invariant.
  return partition_for_ranks(d, spec, ranks);
}

std::unique_ptr<Solver> fresh_solver(dist::Communicator& comm,
                                     const SolverSpec& spec,
                                     const data::Dataset& d) {
  return make_solver(comm, d, partition_for(spec, d, comm.size()), spec);
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

/// Full bitwise result comparison — everything except the measured
/// wall-clock fields.
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
// Serial conformance: every registered id
// ---------------------------------------------------------------------

TEST(SnapshotResume, SerialResumeIsBitwiseIdenticalForEveryAlgorithm) {
  for (const std::string& id : registered_algorithms()) {
    SCOPED_TRACE(id);
    const SolverSpec spec = conformance_spec(id);
    const data::Dataset& d = dataset_for(spec);

    dist::SerialComm ref_comm;
    const SolveResult reference = fresh_solver(ref_comm, spec, d)->run();

    // Interrupt mid-solve, snapshot, resume into a FRESH solver.
    dist::SerialComm comm_a;
    const std::unique_ptr<Solver> interrupted =
        fresh_solver(comm_a, spec, d);
    interrupted->step(spec.max_iterations / 3);
    const std::vector<std::uint8_t> image = interrupted->snapshot();

    dist::SerialComm comm_b;
    const std::unique_ptr<Solver> resumed = fresh_solver(comm_b, spec, d);
    resumed->restore(image);
    EXPECT_EQ(resumed->iterations_run(), interrupted->iterations_run());
    expect_results_identical(reference, resumed->run(), id + " resumed");

    // Taking the snapshot must not perturb the interrupted solver either.
    expect_results_identical(reference, interrupted->run(),
                             id + " continued after snapshot");
  }
}

TEST(SnapshotResume, SerialFileRoundTripIsBitwiseIdentical) {
  const std::string path = ::testing::TempDir() + "sa_snapshot_serial.snap";
  for (const std::string& id : registered_algorithms()) {
    SCOPED_TRACE(id);
    const SolverSpec spec = conformance_spec(id);
    const data::Dataset& d = dataset_for(spec);

    dist::SerialComm ref_comm;
    const SolveResult reference = fresh_solver(ref_comm, spec, d)->run();

    dist::SerialComm comm_a;
    const std::unique_ptr<Solver> interrupted =
        fresh_solver(comm_a, spec, d);
    interrupted->step(spec.max_iterations / 2);
    interrupted->snapshot_to_file(path);

    dist::SerialComm comm_b;
    const std::unique_ptr<Solver> resumed = fresh_solver(comm_b, spec, d);
    resumed->restore_from_file(path);
    expect_results_identical(reference, resumed->run(), id + " from file");
  }
}

// ---------------------------------------------------------------------
// 4-rank conformance: every registered id
// ---------------------------------------------------------------------

void multi_rank_resume_sweep(int ranks) {
  for (const std::string& id : registered_algorithms()) {
    SCOPED_TRACE(id);
    const SolverSpec spec = conformance_spec(id);
    const data::Dataset& d = dataset_for(spec);

    // Per-rank results: [rank] → (reference, resumed, continued).
    std::vector<SolveResult> reference(ranks), resumed(ranks),
        continued(ranks);
    std::mutex lock;
    dist::run_distributed(ranks, [&](dist::Communicator& comm) {
      // One Communicator serves all three solves on this rank: zero its
      // metering between them so each solve starts from clean counters
      // (restore() installs the snapshot's counters itself).
      comm.set_stats(dist::CommStats{});
      SolveResult ref = fresh_solver(comm, spec, d)->run();

      comm.set_stats(dist::CommStats{});
      const std::unique_ptr<Solver> interrupted =
          fresh_solver(comm, spec, d);
      interrupted->step(spec.max_iterations / 3);
      // Each rank snapshots and restores its own image (the in-memory
      // image carries this rank's trace counters, so parity holds
      // per-rank, not just on rank 0).
      const std::vector<std::uint8_t> image = interrupted->snapshot();
      SolveResult cont = interrupted->run();

      const std::unique_ptr<Solver> fresh = fresh_solver(comm, spec, d);
      fresh->restore(image);
      SolveResult res = fresh->run();

      std::scoped_lock guard(lock);
      reference[comm.rank()] = std::move(ref);
      resumed[comm.rank()] = std::move(res);
      continued[comm.rank()] = std::move(cont);
    });
    for (int r = 0; r < ranks; ++r) {
      const std::string tag = id + " rank " + std::to_string(r);
      expect_results_identical(reference[r], resumed[r], tag + " resumed");
      expect_results_identical(reference[r], continued[r],
                               tag + " continued");
    }
  }
}

TEST(SnapshotResume, FourRankResumeIsBitwiseIdenticalForEveryAlgorithm) {
  multi_rank_resume_sweep(4);
}

// CI's 8-rank smoke job sets SA_SMOKE_RANKS to sweep resume parity across
// a wider team (any rank count >= 2 works; self-skips when unset).
TEST(SnapshotResume, RankSweepFromEnvironment) {
  const char* env = std::getenv("SA_SMOKE_RANKS");
  const int p = env ? std::atoi(env) : 0;
  if (p < 2) GTEST_SKIP() << "set SA_SMOKE_RANKS >= 2 to run the sweep";
  multi_rank_resume_sweep(p);
}

TEST(SnapshotResume, FourRankFileRoundTripMatchesRankZero) {
  constexpr int kRanks = 4;
  const std::string path = ::testing::TempDir() + "sa_snapshot_4rank.snap";
  const SolverSpec spec = conformance_spec("sa-lasso");
  const data::Dataset& d = dataset_for(spec);

  std::vector<SolveResult> reference(kRanks), resumed(kRanks);
  std::mutex lock;
  dist::run_distributed(kRanks, [&](dist::Communicator& comm) {
    comm.set_stats(dist::CommStats{});
    SolveResult ref = fresh_solver(comm, spec, d)->run();

    comm.set_stats(dist::CommStats{});
    const std::unique_ptr<Solver> interrupted = fresh_solver(comm, spec, d);
    interrupted->step(100);
    interrupted->snapshot_to_file(path);  // collective; rank 0 writes

    const std::unique_ptr<Solver> fresh = fresh_solver(comm, spec, d);
    fresh->restore_from_file(path);  // collective; rank 0 reads + scatters
    SolveResult res = fresh->run();

    std::scoped_lock guard(lock);
    reference[comm.rank()] = std::move(ref);
    resumed[comm.rank()] = std::move(res);
  });
  // The file carries rank 0's counters; iterates are replicated, so every
  // rank's resumed solution and objectives match its reference bitwise.
  for (int r = 0; r < kRanks; ++r) {
    const std::string tag = "rank " + std::to_string(r);
    expect_bits_equal(reference[r].x, resumed[r].x, tag + ": x");
    ASSERT_EQ(reference[r].trace.points.size(),
              resumed[r].trace.points.size());
    for (std::size_t i = 0; i < reference[r].trace.points.size(); ++i) {
      EXPECT_EQ(
          std::bit_cast<std::uint64_t>(
              reference[r].trace.points[i].objective),
          std::bit_cast<std::uint64_t>(resumed[r].trace.points[i].objective))
          << tag << " point " << i;
    }
  }
  expect_results_identical(reference[0], resumed[0], "rank 0");
}

// ---------------------------------------------------------------------
// Rank-count invariance: the fixed reduction grouping makes every
// cross-rank sum fold through the same global chunk tree on every rank
// count, so entire trajectories — not just snapshots — are bitwise
// identical across P.  CommStats are the one excluded quantity: message
// and word counts legitimately scale with log P.
// ---------------------------------------------------------------------

/// Bitwise comparison of everything that must be rank-count invariant:
/// solution, duals, stop reason, and the trace's iterations + objectives.
void expect_equivalent_ignoring_stats(const SolveResult& a,
                                      const SolveResult& b,
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
  }
  EXPECT_EQ(a.trace.iterations_run, b.trace.iterations_run) << what;
}

/// Shorter spec for the O(P·Q) sweeps: still several rounds and trace
/// points on both sides of every interrupt.
SolverSpec cross_rank_spec(const std::string& id) {
  SolverSpec spec = conformance_spec(id);
  spec.max_iterations = 120;
  spec.trace_every = 30;
  return spec;
}

/// Rank 0's result of an uninterrupted `ranks`-rank solve.
SolveResult run_on_ranks(const SolverSpec& spec, const data::Dataset& d,
                         int ranks) {
  SolveResult out;
  std::mutex lock;
  dist::run_distributed(ranks, [&](dist::Communicator& comm) {
    SolveResult r = fresh_solver(comm, spec, d)->run();
    if (comm.rank() == 0) {
      std::scoped_lock guard(lock);
      out = std::move(r);
    }
  });
  return out;
}

/// One cross-rank sweep case: a spec and the dataset it runs on.
struct CrossRankCase {
  std::string name;
  SolverSpec spec;
  const data::Dataset* data;
};

/// Every registered id on its fixture, plus a narrow dense block that runs
/// on the Gram cache with k % 4 ≠ 0: sa-lasso at µ = 3, s = 3 (k = 9) on
/// 16 dense columns (tri(16) = 136 ≤ 4·tri(9) = 180).  (The sa-group-lasso
/// fixture, k = 16 over 28 columns, runs on the cache too.)
std::vector<CrossRankCase> cross_rank_cases() {
  std::vector<CrossRankCase> cases;
  for (const std::string& id : registered_algorithms()) {
    const SolverSpec spec = cross_rank_spec(id);
    cases.push_back({id, spec, &dataset_for(spec)});
  }
  static const data::Dataset narrow = [] {
    data::RegressionConfig cfg;
    cfg.num_points = 64;
    cfg.num_features = 16;
    cfg.density = 0.5;
    cfg.support_size = 4;
    cfg.noise_sigma = 0.02;
    cfg.seed = 93;
    return data::make_regression(cfg).dataset;
  }();
  SolverSpec spec = cross_rank_spec("sa-lasso");
  spec.block_size = 3;
  spec.s = 3;
  cases.push_back({"sa-lasso narrow dense, k = 9", spec, &narrow});
  return cases;
}

TEST(SnapshotResume, TracesAreBitwiseIdenticalAcrossRankCounts) {
  // Serial, 2-, 3-, 4-, and 8-rank uninterrupted solves produce the SAME
  // bits for every algorithm: solution, duals, every traced objective.
  // (3 exercises the non-power-of-two tree-allreduce path end to end.)
  for (const CrossRankCase& c : cross_rank_cases()) {
    const std::string& id = c.name;
    SCOPED_TRACE(id);
    const SolverSpec& spec = c.spec;
    const data::Dataset& d = *c.data;

    dist::SerialComm ref_comm;
    const SolveResult reference = fresh_solver(ref_comm, spec, d)->run();
    for (int ranks : {2, 3, 4, 8}) {
      expect_equivalent_ignoring_stats(
          reference, run_on_ranks(spec, d, ranks),
          id + " on " + std::to_string(ranks) + " ranks");
    }
  }
}

TEST(SnapshotResume, CrossRankCountResumeIsBitwiseForEveryAlgorithm) {
  // Elastic resume: checkpoint at P ranks, resume at Q ranks, for every
  // (P, Q) in {1,2,4,8}² — the continued run lands on the uninterrupted
  // serial reference bitwise (solution, duals, stop reason, trace), for
  // every id and the narrow Gram-cache case.
  const std::string path =
      ::testing::TempDir() + "sa_snapshot_cross_rank.snap";
  for (const CrossRankCase& c : cross_rank_cases()) {
    const std::string& id = c.name;
    SCOPED_TRACE(id);
    const SolverSpec& spec = c.spec;
    const data::Dataset& d = *c.data;

    dist::SerialComm ref_comm;
    const SolveResult reference = fresh_solver(ref_comm, spec, d)->run();

    for (int p : {1, 2, 4, 8}) {
      dist::run_distributed(p, [&](dist::Communicator& comm) {
        const std::unique_ptr<Solver> solver = fresh_solver(comm, spec, d);
        solver->step(spec.max_iterations / 3);
        solver->snapshot_to_file(path);  // collective; rank 0 writes
      });
      for (int q : {1, 2, 4, 8}) {
        const std::string tag = id + " P=" + std::to_string(p) +
                                " -> Q=" + std::to_string(q);
        std::vector<SolveResult> resumed(q);
        std::mutex lock;
        dist::run_distributed(q, [&](dist::Communicator& comm) {
          const std::unique_ptr<Solver> solver =
              fresh_solver(comm, spec, d);
          solver->restore_from_file(path);
          SolveResult r = solver->run();
          std::scoped_lock guard(lock);
          resumed[comm.rank()] = std::move(r);
        });
        for (int r = 0; r < q; ++r)
          expect_equivalent_ignoring_stats(
              reference, resumed[r], tag + " rank " + std::to_string(r));
      }
    }
  }
}

// Plain (unaccelerated) lasso keeps no (y, ỹ): since format version 4
// its snapshot carries no lasso/y or lasso/y_img section, while the
// accelerated mode's does, and both resume bitwise — serially and from
// P = 4 to Q ∈ {1, 3}.
TEST(SnapshotResume, PlainLassoSnapshotOmitsTheAcceleratedState) {
  const std::string path = ::testing::TempDir() + "sa_snapshot_plain.snap";
  for (const bool accelerated : {false, true}) {
    SCOPED_TRACE(accelerated ? "accelerated" : "plain");
    SolverSpec spec = conformance_spec("sa-lasso");
    spec.accelerated = accelerated;
    const data::Dataset& d = dataset_for(spec);
    dist::SerialComm ref_comm;
    const SolveResult reference = fresh_solver(ref_comm, spec, d)->run();

    dist::SerialComm comm_a;
    const std::unique_ptr<Solver> interrupted = fresh_solver(comm_a, spec, d);
    interrupted->step(spec.max_iterations / 3);
    const std::vector<std::uint8_t> image = interrupted->snapshot();
    const io::SnapshotReader reader = io::SnapshotReader::parse(image);
    EXPECT_EQ(reader.has("lasso/y"), accelerated);
    EXPECT_EQ(reader.has("lasso/y_img"), accelerated);
    EXPECT_TRUE(reader.has("lasso/z_img"));

    dist::SerialComm comm_b;
    const std::unique_ptr<Solver> resumed = fresh_solver(comm_b, spec, d);
    resumed->restore(image);
    expect_results_identical(reference, resumed->run(), "serial resume");

    dist::run_distributed(4, [&](dist::Communicator& comm) {
      const std::unique_ptr<Solver> solver = fresh_solver(comm, spec, d);
      solver->step(spec.max_iterations / 3);
      solver->snapshot_to_file(path);
    });
    for (const int q : {1, 3}) {
      std::vector<SolveResult> out(static_cast<std::size_t>(q));
      std::mutex lock;
      dist::run_distributed(q, [&](dist::Communicator& comm) {
        const std::unique_ptr<Solver> solver = fresh_solver(comm, spec, d);
        solver->restore_from_file(path);
        SolveResult r = solver->run();
        std::scoped_lock guard(lock);
        out[static_cast<std::size_t>(comm.rank())] = std::move(r);
      });
      for (int r = 0; r < q; ++r)
        expect_equivalent_ignoring_stats(
            reference, out[static_cast<std::size_t>(r)],
            "P=4 -> Q=" + std::to_string(q) + " rank " + std::to_string(r));
    }
  }
}

// ---------------------------------------------------------------------
// Every round boundary: resuming the last checkpoint is the one recovery
// path, so a snapshot taken after ANY round — the first, the last, the
// pre-first-round state — must resume bitwise, at the rank count that
// took it and at others (Q = 3 is the slotted wire).
// ---------------------------------------------------------------------

/// Each rank's result of `task`, run on a SerialComm for one rank and on
/// a persistent ThreadTeam otherwise (one team per rank count, reused
/// across the hundreds of resumes below).  Every run starts from zeroed
/// counters.
class RankRunner {
 public:
  std::vector<SolveResult> run(
      int ranks, const std::function<SolveResult(dist::Communicator&)>& task) {
    std::vector<SolveResult> out(static_cast<std::size_t>(ranks));
    if (ranks == 1) {
      dist::SerialComm comm;
      out[0] = task(comm);
      return out;
    }
    std::unique_ptr<dist::ThreadTeam>& team = teams_[ranks];
    if (!team) team = std::make_unique<dist::ThreadTeam>(ranks);
    team->run([&](dist::ThreadComm& comm) {
      comm.set_stats(dist::CommStats{});
      out[static_cast<std::size_t>(comm.rank())] = task(comm);
    });
    return out;
  }

 private:
  std::map<int, std::unique_ptr<dist::ThreadTeam>> teams_;
};

TEST(SnapshotResume, EveryRoundBoundaryResumesBitwiseAtAnyRankCount) {
  RankRunner runner;
  for (const std::string& id : registered_algorithms()) {
    SCOPED_TRACE(id);
    SolverSpec spec = conformance_spec(id);
    spec.max_iterations = 32;  // 8 rounds at s = 4, 32 for classical ids
    spec.trace_every = 8;
    const data::Dataset& d = dataset_for(spec);
    const auto uninterrupted = [&](dist::Communicator& comm) {
      return fresh_solver(comm, spec, d)->run();
    };
    const SolveResult serial = runner.run(1, uninterrupted)[0];

    for (int p : {1, 4}) {
      const std::vector<SolveResult> reference = runner.run(p, uninterrupted);
      // images[r][k]: rank r's snapshot after k rounds, k = 0 … rounds.
      std::vector<std::vector<std::vector<std::uint8_t>>> images(
          static_cast<std::size_t>(p));
      const std::vector<SolveResult> source =
          runner.run(p, [&](dist::Communicator& comm) {
            const std::unique_ptr<Solver> solver =
                fresh_solver(comm, spec, d);
            auto& mine = images[static_cast<std::size_t>(comm.rank())];
            mine.push_back(solver->snapshot());
            while (solver->step(1) > 0) mine.push_back(solver->snapshot());
            return solver->run();
          });
      const std::size_t boundaries =
          spec.max_iterations / spec.unroll_depth() + 1;
      for (int r = 0; r < p; ++r) {
        ASSERT_EQ(images[static_cast<std::size_t>(r)].size(), boundaries);
        // Snapshotting every round does not perturb the source run.
        expect_results_identical(reference[r], source[r],
                                 "source rank " + std::to_string(r));
      }

      for (std::size_t k = 0; k < boundaries; ++k) {
        for (int q : {1, 3, 4}) {
          // At Q = P every rank resumes its own image, so the per-rank
          // counters must match too; otherwise every rank adopts rank
          // 0's image, as restore_from_file does.
          const std::vector<SolveResult> resumed =
              runner.run(q, [&](dist::Communicator& comm) {
                const std::unique_ptr<Solver> solver =
                    fresh_solver(comm, spec, d);
                solver->restore(
                    images[q == p ? static_cast<std::size_t>(comm.rank())
                                  : 0][k]);
                return solver->run();
              });
          for (int r = 0; r < q; ++r) {
            const std::string tag = id + " P=" + std::to_string(p) +
                                    " round " + std::to_string(k) +
                                    " -> Q=" + std::to_string(q) +
                                    " rank " + std::to_string(r);
            if (q == p)
              expect_results_identical(reference[r], resumed[r], tag);
            else
              expect_equivalent_ignoring_stats(serial, resumed[r], tag);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Negative paths
// ---------------------------------------------------------------------

class SnapshotNegative : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = conformance_spec("sa-lasso");
    const data::Dataset& d = dataset_for(spec_);
    dist::SerialComm ref_comm;
    reference_ = fresh_solver(ref_comm, spec_, d)->run();

    dist::SerialComm comm;
    const std::unique_ptr<Solver> source = fresh_solver(comm, spec_, d);
    source->step(80);
    image_ = source->snapshot();
  }

  /// Asserts that restoring `bytes` throws a SnapshotError whose message
  /// contains `needle`, and that the failed restore left the solver
  /// untouched: it still finishes bitwise-identically to the reference.
  void expect_rejected(const std::vector<std::uint8_t>& bytes,
                       const std::string& needle) {
    dist::SerialComm comm;
    const std::unique_ptr<Solver> solver =
        fresh_solver(comm, spec_, dataset_for(spec_));
    try {
      solver->restore(bytes);
      FAIL() << "expected SnapshotError (" << needle << ")";
    } catch (const io::SnapshotError& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << "message was: " << error.what();
    }
    EXPECT_EQ(solver->iterations_run(), 0u) << "solver was touched";
    expect_results_identical(reference_, solver->run(),
                             "after rejected restore (" + needle + ")");
  }

  SolverSpec spec_;
  SolveResult reference_;
  std::vector<std::uint8_t> image_;
};

TEST_F(SnapshotNegative, TruncatedImagesAreRejected) {
  std::vector<std::uint8_t> tiny(image_.begin(), image_.begin() + 10);
  expect_rejected(tiny, "truncated");
  std::vector<std::uint8_t> clipped(image_.begin(), image_.end() - 7);
  expect_rejected(clipped, "checksum");
}

TEST_F(SnapshotNegative, FlippedByteFailsTheChecksum) {
  std::vector<std::uint8_t> corrupted = image_;
  corrupted[corrupted.size() / 2] ^= 0xFF;
  expect_rejected(corrupted, "checksum");
}

// Every single-byte corruption and every truncation of a small snapshot
// must be rejected with a SnapshotError — never another exception, never
// a crash (the sanitizer CI leg runs this too) — and leave the solver
// untouched.
TEST_F(SnapshotNegative, EveryByteFlipAndTruncationIsRejected) {
  dist::SerialComm comm;
  const std::unique_ptr<Solver> solver =
      fresh_solver(comm, spec_, dataset_for(spec_));
  const auto expect_snapshot_error = [&](std::span<const std::uint8_t> bytes,
                                         const std::string& what) {
    try {
      solver->restore(bytes);
      ADD_FAILURE() << what << " was accepted";
    } catch (const io::SnapshotError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << " threw a non-snapshot error: " << e.what();
    }
  };
  std::vector<std::uint8_t> mutated = image_;
  for (std::size_t i = 0; i < image_.size(); ++i) {
    for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0xFF}}) {
      mutated[i] ^= mask;
      expect_snapshot_error(mutated, "flip of byte " + std::to_string(i) +
                                         " by " + std::to_string(mask));
      mutated[i] = image_[i];
    }
  }
  for (std::size_t n = 0; n < image_.size(); ++n) {
    expect_snapshot_error(std::span<const std::uint8_t>(image_.data(), n),
                          "truncation to " + std::to_string(n) + " bytes");
  }
  EXPECT_EQ(solver->iterations_run(), 0u) << "solver was touched";
  expect_results_identical(reference_, solver->run(),
                           "after every rejected mutation");
}

TEST_F(SnapshotNegative, WrongVersionIsRejected) {
  std::vector<std::uint8_t> wrong = image_;
  wrong[8] += 1;  // u32 version field lives at offset 8
  expect_rejected(wrong, "version");
}

// FNV-1a over the checksummed region (bytes 24..end), written back into
// the u64 checksum field at offset 16 — lets a test doctor section
// payloads and still present a checksum-valid image, so the rejection it
// asserts comes from the SEMANTIC validation, not the integrity check.
void restamp_checksum(std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 24; i < bytes.size(); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  std::memcpy(bytes.data() + 16, &h, sizeof(h));
}

TEST_F(SnapshotNegative, PreGroupingVersionIsRejectedDescriptively) {
  // A format-2 snapshot predates the fixed reduction grouping: its sums
  // were accumulated per-rank, so it cannot be continued bitwise.  The
  // error says so instead of a generic unsupported-version line.  (The
  // version gate runs before the checksum, so no restamp is needed.)
  std::vector<std::uint8_t> old = image_;
  old[8] = 2;
  expect_rejected(old, "predates the fixed reduction grouping");
}

TEST_F(SnapshotNegative, VersionThreeIsRejectedDescriptively) {
  // A format-3 snapshot of plain lasso still carries the always-zero
  // lasso/y and lasso/y_img sections; version 4 readers refuse the old
  // format by name rather than with a generic unsupported-version line.
  std::vector<std::uint8_t> old = image_;
  old[8] = 3;
  expect_rejected(old, "format version 3 predates format version 4");
}

TEST_F(SnapshotNegative, DoctoredGroupingVersionIsRejected) {
  // Flip the core/grouping section's version word (the first u64 of its
  // payload) and restamp the checksum: the reader must reject on the
  // grouping version specifically, naming both versions.
  std::vector<std::uint8_t> doctored = image_;
  const std::string name = "core/grouping";
  const auto it = std::search(doctored.begin(), doctored.end(),
                              name.begin(), name.end());
  ASSERT_NE(it, doctored.end()) << "snapshot lacks the grouping section";
  // Section layout: name zero-padded to 8 bytes, then the u64 count,
  // then the payload ([version, chunk, extent]).
  const std::size_t payload =
      static_cast<std::size_t>(it - doctored.begin()) +
      ((name.size() + 7) & ~std::size_t{7}) + 8;
  const std::uint64_t foreign = 999;
  std::memcpy(doctored.data() + payload, &foreign, sizeof(foreign));
  restamp_checksum(doctored);
  expect_rejected(doctored, "grouping version");
}

TEST_F(SnapshotNegative, VersionOneGroupingSnapshotIsRejectedByName) {
  // A snapshot written under grouping v1 (the left-to-right chunk fold)
  // carries sums this build's pairwise tree cannot continue bitwise: the
  // refusal must name version 1, not surface as a chunk-size mismatch.
  std::vector<std::uint8_t> doctored = image_;
  const std::string name = "core/grouping";
  const auto it = std::search(doctored.begin(), doctored.end(),
                              name.begin(), name.end());
  ASSERT_NE(it, doctored.end()) << "snapshot lacks the grouping section";
  const std::size_t payload =
      static_cast<std::size_t>(it - doctored.begin()) +
      ((name.size() + 7) & ~std::size_t{7}) + 8;
  const std::uint64_t v1 = 1;
  std::memcpy(doctored.data() + payload, &v1, sizeof(v1));
  restamp_checksum(doctored);
  expect_rejected(doctored, "reduction grouping version 1 in the snapshot");
}

TEST_F(SnapshotNegative, GroupingChunkMismatchIsRejected) {
  // Same algorithm and spec fingerprint, but the target solver runs a
  // different reduction-chunk grid: its folds would associate differently,
  // so the restore is refused, naming the chunk sizes.
  SolverSpec other = spec_;
  other.reduction_chunk = 8;  // the snapshot's auto grid uses chunk 1
  dist::SerialComm comm;
  const std::unique_ptr<Solver> solver =
      fresh_solver(comm, other, dataset_for(other));
  try {
    solver->restore(image_);
    FAIL() << "expected SnapshotError";
  } catch (const io::SnapshotError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("reduction grouping chunk size"), std::string::npos)
        << what;
  }
  EXPECT_EQ(solver->iterations_run(), 0u);
}

TEST_F(SnapshotNegative, BadMagicIsRejected) {
  std::vector<std::uint8_t> wrong = image_;
  wrong[0] = 'X';
  expect_rejected(wrong, "magic");
}

TEST_F(SnapshotNegative, WrongAlgorithmSnapshotIsRejected) {
  // A classical-lasso snapshot must not restore into this sa-lasso
  // solver; the error names both ids.
  SolverSpec other = conformance_spec("lasso");
  dist::SerialComm comm;
  const std::unique_ptr<Solver> source =
      fresh_solver(comm, other, dataset_for(other));
  source->step(20);
  std::vector<std::uint8_t> foreign = source->snapshot();
  expect_rejected(foreign, "algorithm mismatch");
  expect_rejected(foreign, "lasso");
  expect_rejected(foreign, "sa-lasso");
}

TEST_F(SnapshotNegative, SpecMismatchIsRejected) {
  // Same algorithm id, different λ: the fingerprint catches silent
  // trajectory forks.
  SolverSpec other = spec_;
  other.lambda = 0.25;
  dist::SerialComm comm;
  const std::unique_ptr<Solver> solver =
      fresh_solver(comm, other, dataset_for(other));
  try {
    solver->restore(image_);
    FAIL() << "expected SnapshotError";
  } catch (const io::SnapshotError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("spec mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("lambda"), std::string::npos) << what;
  }
  EXPECT_EQ(solver->iterations_run(), 0u);
}

TEST_F(SnapshotNegative, MissingFileIsRejectedAndNamesThePath) {
  dist::SerialComm comm;
  const std::unique_ptr<Solver> solver =
      fresh_solver(comm, spec_, dataset_for(spec_));
  try {
    solver->restore_from_file("/nonexistent/sa-opt-missing.snap");
    FAIL() << "expected SnapshotError";
  } catch (const io::SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("sa-opt-missing.snap"),
              std::string::npos)
        << error.what();
  }
  expect_results_identical(reference_, solver->run(),
                           "after missing-file restore");
}

// ---------------------------------------------------------------------
// Torn tmp-file: a write killed mid-flight must not cost the previous
// checkpoint (the atomic tmp + rename guarantee, exercised end to end)
// ---------------------------------------------------------------------

TEST(SnapshotResume, TornTmpFileLeavesThePreviousCheckpointLoadable) {
  const std::string path = ::testing::TempDir() + "sa_torn.snap";
  const std::string tmp = path + ".tmp";
  const SolverSpec spec = conformance_spec("sa-lasso");
  const data::Dataset& d = dataset_for(spec);

  dist::SerialComm ref_comm;
  const SolveResult reference = fresh_solver(ref_comm, spec, d)->run();

  // A valid checkpoint on disk…
  dist::SerialComm comm;
  const std::unique_ptr<Solver> source = fresh_solver(comm, spec, d);
  source->step(80);
  source->snapshot_to_file(path);

  // …then the next write is killed mid-flight: the tmp file holds only
  // the first half of a real image.
  const std::vector<std::uint8_t> image = source->snapshot();
  {
    std::ofstream torn(tmp, std::ios::binary | std::ios::trunc);
    torn.write(reinterpret_cast<const char*>(image.data()),
               static_cast<std::streamsize>(image.size() / 2));
  }

  // The previous checkpoint is untouched and resumes bitwise.
  dist::SerialComm comm_b;
  const std::unique_ptr<Solver> resumed = fresh_solver(comm_b, spec, d);
  resumed->restore_from_file(path);
  expect_results_identical(reference, resumed->run(),
                           "resumed beside a torn tmp");

  // The torn tmp itself is rejected, never silently half-loaded.
  dist::SerialComm comm_c;
  const std::unique_ptr<Solver> victim = fresh_solver(comm_c, spec, d);
  EXPECT_THROW(victim->restore_from_file(tmp), io::SnapshotError);
  expect_results_identical(reference, victim->run(),
                           "after rejected torn tmp");
}

TEST(SnapshotResume, StaleTornTmpDoesNotPoisonLaterCheckpoints) {
  // A stale torn tmp from a killed run sits at path.tmp; a fresh
  // checkpointed solve over the same path must overwrite it and leave a
  // resumable checkpoint behind.
  const std::string path = ::testing::TempDir() + "sa_stale_tmp.snap";
  SolverSpec spec = conformance_spec("sa-lasso");
  const data::Dataset& d = dataset_for(spec);
  {
    std::ofstream stale(path + ".tmp", std::ios::binary | std::ios::trunc);
    stale << "garbage left by a killed writer";
  }

  dist::SerialComm ref_comm;
  const SolveResult reference = fresh_solver(ref_comm, spec, d)->run();

  SolverSpec ckpt_spec = spec;
  ckpt_spec.checkpoint_path = path;
  ckpt_spec.checkpoint_every = 100;
  const SolveResult checkpointed = solve(d, ckpt_spec);
  expect_results_identical(reference, checkpointed,
                           "checkpointed over a stale tmp");

  const SolveResult resumed = solve(d, spec, path);
  expect_results_identical(reference, resumed, "resumed over a stale tmp");
}

// ---------------------------------------------------------------------
// Checkpoint-every observer path
// ---------------------------------------------------------------------

TEST(SnapshotResume, CheckpointEveryWritesAResumableFile) {
  const std::string path = ::testing::TempDir() + "sa_ckpt_every.snap";
  SolverSpec spec = conformance_spec("sa-lasso");
  const data::Dataset& d = dataset_for(spec);

  dist::SerialComm ref_comm;
  const SolveResult reference = fresh_solver(ref_comm, spec, d)->run();

  // The checkpointed run itself must match the reference bitwise (the
  // snapshot writes restore the metering they touch).
  SolverSpec ckpt_spec = spec;
  ckpt_spec.checkpoint_path = path;
  ckpt_spec.checkpoint_every = 100;
  const SolveResult checkpointed = solve(d, ckpt_spec);
  expect_results_identical(reference, checkpointed, "checkpointed run");

  // The last checkpoint on disk resumes to the same result.  Resume under
  // the plain spec (no further checkpoints).
  const SolveResult resumed = solve(d, spec, path);
  expect_results_identical(reference, resumed, "resumed from checkpoint");
}

// Checkpointing every round keeps the async writer's back-pressure path
// busy (a submit while the previous write is in flight is skipped): the
// file left on disk after finish() drains must resume bitwise onto the
// original trajectory, whichever checkpoint's image survived.
TEST(SnapshotResume, AsyncCheckpointFileResumesBitwise) {
  const std::string path = ::testing::TempDir() + "sa_async_ckpt.snap";
  SolverSpec spec = conformance_spec("sa-lasso");
  const data::Dataset& d = dataset_for(spec);
  dist::SerialComm ref_comm;
  const SolveResult reference = fresh_solver(ref_comm, spec, d)->run();

  SolverSpec ckpt_spec = spec;
  ckpt_spec.checkpoint_path = path;
  ckpt_spec.checkpoint_every = spec.s;
  expect_results_identical(reference, solve(d, ckpt_spec),
                           "checkpointed every round");
  expect_results_identical(reference, solve(d, spec, path),
                           "resumed from the async checkpoint");
  std::remove(path.c_str());
}

TEST(SnapshotResume, CheckpointCadenceRequiresAPath) {
  SolverSpec spec = conformance_spec("sa-lasso");
  spec.checkpoint_every = 10;  // no path
  EXPECT_THROW(solve(dataset_for(spec), spec), PreconditionError);
}

// ---------------------------------------------------------------------
// Writer/reader unit coverage
// ---------------------------------------------------------------------

TEST(SnapshotFormat, WriterReaderRoundTrip) {
  io::SnapshotWriter writer;
  writer.reset("unit-test");
  const std::vector<double> reals = {1.5, -0.0, 1e-300, 42.0};
  const std::vector<std::uint64_t> words = {0, 1, ~0ULL};
  writer.add_doubles("reals", reals);
  writer.add_u64s("words", words);
  writer.add_double("scalar", 2.25);
  writer.add_u64("word", 77);
  const auto image = writer.finalize();

  const io::SnapshotReader reader = io::SnapshotReader::parse(image);
  EXPECT_EQ(reader.algorithm(), "unit-test");
  EXPECT_TRUE(reader.has("reals"));
  EXPECT_FALSE(reader.has("missing"));
  expect_bits_equal(reader.doubles("reals", 4), reals, "reals");
  const auto w = reader.u64s("words", 3);
  for (std::size_t i = 0; i < words.size(); ++i)
    EXPECT_EQ(w[i], words[i]);
  EXPECT_EQ(reader.real("scalar"), 2.25);
  EXPECT_EQ(reader.word("word"), 77u);
  EXPECT_THROW(reader.doubles("words"), io::SnapshotError);
  EXPECT_THROW(reader.u64s("reals"), io::SnapshotError);
  EXPECT_THROW(reader.doubles("reals", 3), io::SnapshotError);
  EXPECT_THROW(reader.doubles("missing"), io::SnapshotError);
}

TEST(SnapshotFormat, ResetReusesTheWriter) {
  io::SnapshotWriter writer;
  writer.reset("first");
  writer.add_double("a", 1.0);
  const std::vector<std::uint8_t> first(writer.finalize().begin(),
                                        writer.finalize().end());
  writer.reset("second");
  writer.add_double("a", 2.0);
  const auto second = io::SnapshotReader::parse(writer.finalize());
  EXPECT_EQ(second.algorithm(), "second");
  EXPECT_EQ(second.real("a"), 2.0);
  const auto parsed_first = io::SnapshotReader::parse(first);
  EXPECT_EQ(parsed_first.algorithm(), "first");
  EXPECT_EQ(parsed_first.real("a"), 1.0);
}

}  // namespace
}  // namespace sa::core
