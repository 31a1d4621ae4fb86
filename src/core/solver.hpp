// The unified Problem/Solver API: one spec, one interface, one result
// type over all six algorithm families of the paper
// (Lasso/elastic-net, Group Lasso, dual SVM — classical and
// synchronization-avoiding variants of each).
//
//   SolverSpec spec = SolverSpec::make("sa-lasso")
//                         .with_lambda(0.05)
//                         .with_block_size(8)
//                         .with_s(32)
//                         .with_acceleration(true)
//                         .with_max_iterations(5000);
//   SolveResult r = make_solver(comm, dataset, rows, spec)->run();
//
// A SolverSpec is a plain value: every knob of every family in one struct
// with ONE set of defaults (the single source the CLI and the tests pin
// against).  Fields that do not apply to the selected algorithm are
// ignored; validate() rejects contradictory combinations.  make_solver
// (core/registry.hpp) maps the algorithm id to a factory and returns a
// Solver.
//
// Solver is re-entrant: step(k) advances at least one communication round
// and keeps going until ≥ k inner iterations have been taken in that call
// (rounds are never split — an s-step round is the atomic unit, so a
// stepped solve is bit-identical to run()).  run() drives step() to a
// stopping criterion and finalizes.  All ranks of a communicator must
// construct and drive their Solver in lockstep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/objective.hpp"
#include "core/trace.hpp"
#include "data/dataset.hpp"
#include "dist/comm.hpp"

namespace sa::io {
class SnapshotWriter;
class SnapshotReader;
}  // namespace sa::io

namespace sa::core {

/// Why a solve terminated.
enum class StopReason {
  kMaxIterations,       ///< iteration budget H exhausted (the default)
  kObjectiveTolerance,  ///< successive trace objectives within tolerance
  kGapTolerance,        ///< SVM duality gap dropped below tolerance
  kWallClockBudget,     ///< wall-clock budget exceeded (replicated check)
};

const char* to_string(StopReason reason);

/// Which regularizer the Lasso family applies (Group Lasso has its own
/// family because its prox must be aligned with the group structure).
enum class Penalty { kLasso, kElasticNet };

/// The algorithm families behind the registered ids ("lasso" and
/// "sa-lasso" are the same family at different unrolling depths).
enum class SolverFamily { kLasso, kGroupLasso, kSvm, kUnknown };

/// One spec for every solver.  Field groups that only apply to one family
/// are marked; everything else is shared.  Defaults here are THE defaults:
/// the CLI derives its own from this struct.  The SVM family shares them
/// too (λ = 0.1, H = 1000); the paper's Algorithm 3 runs use λ = 1 and
/// H = 10000, which callers set explicitly.
struct SolverSpec {
  std::string algorithm = "lasso";  ///< registry id, e.g. "sa-group-lasso"

  // -- shared ---------------------------------------------------------
  double lambda = 0.1;                ///< regularization strength λ
  std::size_t max_iterations = 1000;  ///< H (inner iterations)
  std::uint64_t seed = 42;            ///< replicated sampler seed
  std::size_t trace_every = 0;        ///< objective cadence (0 = off)
  std::size_t s = 8;                  ///< unrolling depth (sa-* ids only)

  // -- Lasso/elastic-net family --------------------------------------
  Penalty penalty = Penalty::kLasso;
  double elastic_net_l1 = 1.0;  ///< l1 weight when penalty == kElasticNet
  double elastic_net_l2 = 0.0;  ///< l2 weight when penalty == kElasticNet
  std::size_t block_size = 1;   ///< µ (1 = plain CD)
  bool accelerated = false;     ///< Nesterov acceleration (accCD/accBCD)
  std::vector<double> x0;       ///< warm start (empty = zeros); also used
                                ///< by the Group Lasso family

  // -- Group Lasso family --------------------------------------------
  GroupStructure groups;  ///< disjoint feature groups (required)

  // -- SVM family -----------------------------------------------------
  SvmLoss loss = SvmLoss::kL1;

  // -- stopping criteria beyond max_iterations ------------------------
  // All criteria are piggy-backed on the round's single allreduce where
  // the algorithm allows it (see dist/round_message.hpp): enabling them
  // never adds a message per round.  For the regression families the
  // objective tolerance rides the message as a one-word partial and is
  // evaluated at round granularity even with tracing off (successive
  // samples are spaced at least trace_every iterations apart when a trace
  // cadence is set).  The SVM duality gap needs a full margins reduction,
  // so the SVM gap/objective criteria are evaluated at trace points only:
  // validate() rejects an SVM tolerance with trace_every == 0, which
  // could never fire.
  double objective_tolerance = 0.0;  ///< stop when successive objective
                                     ///< samples differ by ≤ tol·max(1,|f|)
  double gap_tolerance = 0.0;        ///< SVM: stop when gap ≤ tol
  double wall_clock_budget = 0.0;    ///< seconds; rank 0's clock rides the
                                     ///< round message's stop-flag section
                                     ///< (replicated decision, one word).
                                     ///< The clock is sampled when the
                                     ///< round is packed, so the budget
                                     ///< can be overshot by up to two
                                     ///< round durations — the price of
                                     ///< zero extra messages.

  // -- checkpointing ---------------------------------------------------
  // When both are set, the solver writes a snapshot of its complete state
  // to checkpoint_path every checkpoint_every inner iterations (rounded up
  // to round boundaries — rounds are atomic).  Rank 0 owns the file and
  // writes it atomically (tmp + rename), so an interrupted run always
  // leaves either the previous or the new snapshot, never a torn one;
  // partitioned state is gathered through the Communicator, so the file
  // is rank-count independent.  Resume with Solver::restore_from_file (or
  // `sa_opt_cli --resume`): the continued solve is bitwise identical to an
  // uninterrupted run.  The steady-state checkpoint path reuses its
  // buffers and performs no heap allocation.
  std::string checkpoint_path;       ///< snapshot file ("" = off)
  std::size_t checkpoint_every = 0;  ///< iterations between snapshots
                                     ///< (0 = off; set both or neither)

  // -- reduction grouping -----------------------------------------------
  // Chunk size of the fixed global reduction grouping
  // (common/grouping.hpp): every cross-rank sum accumulates per-global-
  // chunk partials folded through one fixed pairwise tree, so serial and
  // P-rank runs of the same spec are bitwise identical (and a solve
  // checkpointed at P ranks resumes at Q ranks bitwise) whenever the rank
  // partition is chunk-aligned (core::partition_for_ranks — what solve/
  // solve_on_ranks build).  0 = automatic (targets ~64 chunks).  The
  // grouping is part of the snapshot fingerprint: resuming under a
  // different chunk size is rejected descriptively.
  std::size_t reduction_chunk = 0;  ///< elements per chunk (0 = auto)

  // -- builder-style construction ------------------------------------
  static SolverSpec make(std::string algorithm_id);
  SolverSpec& with_lambda(double v);
  SolverSpec& with_penalty(Penalty p, double l1 = 1.0, double l2 = 0.0);
  SolverSpec& with_block_size(std::size_t mu);
  SolverSpec& with_s(std::size_t depth);
  SolverSpec& with_acceleration(bool on);
  SolverSpec& with_seed(std::uint64_t v);
  SolverSpec& with_max_iterations(std::size_t h);
  SolverSpec& with_trace_every(std::size_t cadence);
  SolverSpec& with_warm_start(std::vector<double> x);
  SolverSpec& with_groups(GroupStructure g);
  SolverSpec& with_loss(SvmLoss l);
  SolverSpec& with_objective_tolerance(double tol);
  SolverSpec& with_gap_tolerance(double tol);
  SolverSpec& with_wall_clock_budget(double seconds);
  SolverSpec& with_checkpoint(std::string path, std::size_t every_n);
  SolverSpec& with_reduction_chunk(std::size_t elements);

  /// True for the synchronization-avoiding ids ("sa-" prefix).
  bool is_sa() const;
  /// Family of `algorithm` (kUnknown when the id has no known suffix).
  SolverFamily family() const;
  /// Effective unrolling depth: s for sa-* ids, 1 for classical ids —
  /// the ONLY thing that distinguishes the two variants of a family.
  std::size_t unroll_depth() const { return is_sa() ? s : 1; }

  /// Throws PreconditionError on invalid or contradictory settings for
  /// the selected algorithm against this dataset.
  void validate(const data::Dataset& dataset) const;
};

/// Everything a solve produces, identical on every rank.
struct SolveResult {
  std::string algorithm;      ///< spec id that produced this result
  std::vector<double> x;      ///< solution (Lasso/group: length n;
                              ///< SVM: assembled primal, length n)
  std::vector<double> alpha;  ///< SVM dual variables (empty otherwise)
  Trace trace;                ///< instrumented history (this rank)
  dist::CommStats stats;      ///< == trace.final_stats, for convenience
  StopReason stop_reason = StopReason::kMaxIterations;

  double final_objective() const { return trace.final_objective(); }
};

/// Called after every communication round with the number of inner
/// iterations completed so far.  Runs on every rank; must not communicate.
using RoundObserver = std::function<void(std::size_t iterations_done)>;

/// Re-entrant polymorphic solver.  Obtain instances via make_solver
/// (core/registry.hpp); drive with step()/run(); collect with finish().
class Solver {
 public:
  virtual ~Solver() = default;

  /// Advances at least one communication round, continuing until this
  /// call has taken ≥ `iterations` inner iterations or a stopping
  /// criterion fires.  Returns the inner iterations advanced (0 iff
  /// finished()).  Rounds are atomic: stepping in any chunking produces
  /// bit-identical results to one run() call.
  virtual std::size_t step(std::size_t iterations = 1) = 0;

  /// True once a stopping criterion has fired (or finish() was called).
  virtual bool finished() const = 0;

  /// Inner iterations completed so far.
  virtual std::size_t iterations_run() const = 0;

  /// Stopping criterion that ended the solve (meaningful when finished()).
  virtual StopReason stop_reason() const = 0;

  /// Trace recorded so far (grows at the configured cadence).
  virtual const Trace& trace() const = 0;

  /// Records the terminal trace point, assembles the solution, and
  /// returns the result.  Call at most once; the solver is spent after.
  virtual SolveResult finish() = 0;

  /// step() until a stopping criterion fires, then finish().
  SolveResult run();

  // -- snapshot / resume ----------------------------------------------
  // A snapshot captures the complete solver state between rounds —
  // iterates, RNG/sampler position, pending tables, trace, CommStats,
  // and stopping-criterion progress — such that a fresh Solver built from
  // the same spec and dataset, restored from the snapshot, continues the
  // solve bitwise identically to one that was never interrupted
  // (asserted for every registered algorithm by
  // tests/io/test_snapshot_resume.cpp; wall-clock readings are the one
  // quantity that is measured, not replayed).  save_state/snapshot and
  // the *_to_file/*_from_file variants are collective: call them on every
  // rank in lockstep.  Partitioned state is gathered to full length, so
  // the image is rank-count independent; the in-memory image holds THIS
  // rank's trace counters, the file rank 0's.  The engine overrides
  // below; the base defaults throw io::SnapshotError for solver types
  // that opt out.

  /// Appends the solver's state to `out` (the writer is reset first).
  virtual void save_state(io::SnapshotWriter& out);

  /// Restores state from a parsed snapshot.  Throws io::SnapshotError —
  /// naming the defect — on algorithm/spec mismatch or malformed
  /// sections, leaving the solver untouched.
  virtual void load_state(const io::SnapshotReader& in);

  /// save_state serialized to a validated byte image.
  std::vector<std::uint8_t> snapshot();

  /// Parses `bytes` (magic/version/checksum validated) and load_state()s.
  void restore(std::span<const std::uint8_t> bytes);

  /// Collective: every rank serializes, rank 0 writes `path` atomically
  /// (tmp + rename).
  virtual void snapshot_to_file(const std::string& path);

  /// Collective: rank 0 reads `path`, the bytes are broadcast through the
  /// communicator, every rank restores.  On failure the solver (and its
  /// metering) is left untouched.
  virtual void restore_from_file(const std::string& path);

  /// Installs a per-round observer (replaces any previous one).
  void set_observer(RoundObserver observer) {
    observer_ = std::move(observer);
  }

 protected:
  RoundObserver observer_;
};

}  // namespace sa::core
