// Internal engine scaffolding behind the unified Solver facade.
// Not part of the public API — include core/solver.hpp + core/registry.hpp
// instead.
//
// Two engine classes implement the shared sample → pack → allreduce →
// apply skeleton on the zero-copy la::BatchView + la::Workspace pipeline:
// ONE proximal least-squares engine (Lasso, elastic net and Group Lasso,
// core/sa_lasso.cpp) and ONE SVM engine (core/sa_svm.cpp).  The classical
// and synchronization-avoiding variants of a family are the same engine
// at unrolling depth 1 vs s (SolverSpec::unroll_depth()).  EngineBase owns
// everything the skeleton shares: the outer-round loop, the per-round
// dist::RoundMessage (the ONE collective per round, with the piggy-backed
// objective / stop-flag trailer sections), trace cadence, stopping
// criteria, observer dispatch, and result finalization.
//
// A round runs as
//
//   pack_round(s_eff, msg)  engine: sample, lay out the message, write the
//                           Gram and dot sections
//   msg.reduce()            the round's single, blocking collective
//   apply_round(s_eff, msg) engine: unpack, inner iterations, batch updates
//
// followed by the base class unpacking the trailer sections and evaluating
// the stopping criteria — so enabling objective-tolerance or wall-budget
// stopping never adds a message.  Due checkpoints are serialized
// collectively after the round; rank 0 hands the image to an
// io::AsyncCheckpointWriter so no rank waits on the disk.  Each phase is
// timed into CommStats (pack / wait / apply / checkpoint seconds); the
// wait meter covers the whole collective, so the phases sum to the round
// loop's wall time.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/grouping.hpp"
#include "core/solver.hpp"
#include "data/partition.hpp"
#include "dist/round_message.hpp"
#include "io/async_writer.hpp"
#include "io/snapshot.hpp"
#include "la/batch_view.hpp"
#include "la/workspace.hpp"

namespace sa::core::detail {

using EngineClock = std::chrono::steady_clock;

inline double seconds_since(EngineClock::time_point start) {
  return std::chrono::duration<double>(EngineClock::now() - start).count();
}

/// The dense Gram cache.  A round's Gram holds entries of one fixed
/// matrix: the Gram of the rank's whole block over every member (AᵀA for
/// the regression families, AAᵀ for SVM).  On a narrow dense block
/// that matrix is small, so the cache builds it once and writes every
/// round's kGram section by gathering entry (slot[i], slot[j]) from it —
/// no Gram kernel and no Gram fold per round, the wire unchanged (the
/// "covariance updates" of glmnet, Friedman, Hastie & Tibshirani 2010).
///
/// Bits: the block view is padded with copies of member 0 to a multiple
/// of 4 members, so every table entry comes from the full-block kernel,
/// and a full-block entry is a symmetric function of its two rows; the
/// table folds through the grouping's tree entry by entry.  So a round
/// with k % 4 == 0, whose walk is full-block too, gets the bits its own
/// Gram kernel and fold would give; a round with k % 4 ≠ 0 may differ in
/// the last bits of its ragged-edge entries — the same at every P and on
/// resume, since the rule below depends only on the input's shape.
class GramCache {
 public:
  /// The build costs at most this many rounds' Gram flops and the table
  /// holds at most this many rounds' Gram words (per block).
  static constexpr std::size_t kMaxRounds = 4;

  /// The rule: cache a block of `members` members whose rounds draw at
  /// most `k_max` when tri(N₄) ≤ kMaxRounds · tri(k_max), N₄ being
  /// `members` rounded up to a multiple of 4.
  static bool fits(std::size_t members, std::size_t k_max) {
    const std::size_t width = padded(members);
    return width * (width + 1) / 2 <= kMaxRounds * k_max * (k_max + 1) / 2;
  }

  /// Arms the cache for a block of `members` members whose rounds write
  /// into `msg` (its grouping already set).  `view(ids, ws)` is the
  /// block's view routine (RowBlock::view_columns, ColBlock::view_rows),
  /// called once here over every member padded with copies of member 0.
  /// Sparse blocks stay unarmed.  The table is sized for msg's wire now
  /// and built at the first write().
  template <typename View>
  void arm(std::size_t members, const dist::RoundMessage& msg, View&& view) {
    const std::size_t width = padded(members);
    const std::span<std::size_t> ids = ws_.indices(0, width);
    for (std::size_t i = 0; i < width; ++i) ids[i] = i < members ? i : 0;
    all_ = view(std::span<const std::size_t>(ids), ws_);
    if (!all_.is_dense()) return;
    width_ = width;
    table_.assign(msg.table_words(width * (width + 1) / 2), 0.0);
  }

  bool armed() const { return width_ > 0; }

  /// Flops the table's build computes (the padded block's Gram).
  std::size_t build_flops() const { return all_.gram_flops(); }

  /// Writes msg's kGram section for the sampled member ids `members`,
  /// building the table first if this is its first write.
  void write(dist::RoundMessage& msg, std::span<const std::size_t> members);

 private:
  static std::size_t padded(std::size_t members) {
    return (members + 3) / 4 * 4;
  }

  std::size_t width_ = 0;  // N₄ once armed
  bool built_ = false;
  la::Workspace ws_;  // the padded ids and the block view's descriptors
  la::BatchView all_;
  std::vector<double> table_;
};

/// Shared outer-round skeleton.  Derived engines implement the round
/// phases (pack_round / apply_round), trace-point
/// evaluation (record_trace_point), and result assembly (assemble);
/// everything else — cadence, stopping criteria, the round message,
/// step()/run()/finish() plumbing — lives here so the six algorithms
/// cannot drift apart.
class EngineBase : public Solver {
 public:
  std::size_t step(std::size_t iterations = 1) final;
  bool finished() const final {
    return done_ || iterations_done_ >= spec_.max_iterations;
  }
  std::size_t iterations_run() const final { return iterations_done_; }
  StopReason stop_reason() const final { return reason_; }
  const Trace& trace() const final { return trace_; }
  SolveResult finish() final;

  // Snapshot/resume (see Solver's contract).  save_state writes the
  // shared skeleton state — spec fingerprint, round/trace/stopping
  // progress, CommStats — then delegates the family's iterates to
  // save_engine_state; its gather traffic is excluded from the metering.
  // load_state validates everything (algorithm id, spec fingerprint,
  // section presence and sizes) before the first mutation, so a rejected
  // snapshot leaves the solver untouched.
  void save_state(io::SnapshotWriter& out) final;
  void load_state(const io::SnapshotReader& in) final;
  void snapshot_to_file(const std::string& path) final;
  void restore_from_file(const std::string& path) final;

 protected:
  EngineBase(dist::Communicator& comm, const SolverSpec& spec);

  /// Packs round `s_eff`: draws the coordinates, builds the round's batch
  /// view and message layout, and writes the Gram and dot sections (the
  /// dots read the residual/image vectors the previous apply_round
  /// updated).
  virtual void pack_round(std::size_t s_eff, dist::RoundMessage& msg) = 0;

  /// Unpacks the reduced Gram/dot sections and replays the s_eff inner
  /// iterations plus the deferred batch updates, on the round view the
  /// matching pack_round built.
  virtual void apply_round(std::size_t s_eff,
                           const dist::RoundMessage& msg) = 0;

  /// Round-objective piggyback (the kObjective section).  Engines whose
  /// objective splits into a summable local partial plus a replicated
  /// term (the regression families) return true and implement the two
  /// hooks; objective-tolerance stopping then works at round granularity
  /// with zero extra messages and no trace requirement.  The SVM duality
  /// gap needs a full margins reduction, so the SVM engine leaves this
  /// off and keeps gap/objective stopping at trace points.
  virtual bool has_round_objective() const { return false; }
  /// Writes this rank's share of the kObjective section through
  /// msg.fold_owned (every owned chunk's partial in one call, folded like
  /// the Gram), evaluated at the CURRENT iterate (pack time).  Called
  /// only in the rounds whose objective the plateau rule reads (one per
  /// trace_every iterations); the other rounds leave the word +0.0.
  virtual void write_round_objective(dist::RoundMessage& msg) { (void)msg; }
  /// Full replicated objective from the tree-folded reduced partial.
  virtual double objective_from_partial(double reduced_partial) {
    (void)reduced_partial;
    return 0.0;
  }

  /// Declares the fixed global reduction grouping this solve accumulates
  /// in.  Derived constructors call it with the partition of their
  /// reduction axis (rows for the regression families, features for
  /// SVM); it sizes the chunk grid from SolverSpec::reduction_chunk and
  /// arms every round message with it, which picks the payload or the
  /// slotted wire (dist/round_message.hpp) identically on every rank.
  void init_grouping(const data::Partition& part);

  /// Collective helper for trace-point sums: reduces a `words`-long
  /// vector whose chunk partials `leaves(bounds, row_begin, row_end,
  /// staged)` writes for every owned chunk, one block of rows per call
  /// (the RoundMessage::fold_owned_rows contract), folded through the
  /// grouping's tree — rank-count invariant.  The span is arena-backed:
  /// valid until the next grouped sum.
  template <typename Leaves>
  std::span<const double> grouped_sum(std::size_t words, Leaves&& leaves) {
    trace_msg_.layout(0, words, 0);
    trace_msg_.fold_owned_rows(dist::RoundSection::kDots1, kTraceRowBlock,
                               leaves);
    return reduce_grouped_sum();
  }

  /// ||v||² of the global vector whose slice this rank owns (`local`,
  /// the rank's block of the grouping's axis) — the rank-count-invariant
  /// replacement for allreduce_sum_scalar(nrm2²(v)).
  double grouped_norm_allreduce(std::span<const double> local);

  /// Arms the dense Gram cache when GramCache::fits(members, k_max) and
  /// the block is dense.  Derived constructors call it after
  /// init_grouping, with the block's member count, the widest round
  /// (unroll depth × widest block) and the block's view routine.
  template <typename View>
  void init_gram_cache(std::size_t members, std::size_t k_max, View&& view) {
    if (GramCache::fits(members, k_max))
      gram_cache_.arm(members, msg_, std::forward<View>(view));
  }

  /// Writes the kGram section of `msg` from the round's sampled batch
  /// `y`, whose member ids are `members`, and meters its flops.  With the
  /// Gram cache armed the section is gathered from it; otherwise dense
  /// views stage every owned chunk's Gram (fold_owned) and sparse views
  /// hand over only the partials of the chunks where two members share a
  /// row (fold_entries).
  void fold_gram(dist::RoundMessage& msg, const la::BatchView& y,
                 std::span<const std::size_t> members);

  /// Writes the chunk partials of ||v||² (`local` as above) into the
  /// one-word `section` of `msg`: one nrm2² per owned chunk.
  static void fold_norm_squared(dist::RoundMessage& msg,
                                dist::RoundSection section,
                                std::span<const double> local);

  /// Evaluates the traced quantity (objective / duality gap) at
  /// `iteration` and pushes a TracePoint.  Implementations must exclude
  /// their own communication from the metering (snapshot / restore) and
  /// use pre-sized scratch (no steady-state allocation).
  virtual void record_trace_point(std::size_t iteration) = 0;

  /// Writes the solution (x, and alpha for SVM) into `out`.  May
  /// communicate; runs before the final counters are captured.
  virtual void assemble(SolveResult& out) = 0;

  /// Pushes a TracePoint with instrumentation-excluded counters — the
  /// helper every record_trace_point implementation ends with.
  void push_trace_point(std::size_t iteration, double objective,
                        const dist::CommStats& snapshot);

  /// Engine snapshot hooks.  save_engine_state appends the family's own
  /// sections: replicated vectors are written directly, partitioned
  /// slices through gather_full (collective).  load_engine_state must
  /// fetch and size-check every section BEFORE overwriting any state, so
  /// a malformed snapshot leaves the engine untouched.
  virtual void save_engine_state(io::SnapshotWriter& out) = 0;
  virtual void load_engine_state(const io::SnapshotReader& in) = 0;

  /// Collective: assembles the full-length vector whose slice
  /// [begin, begin + local.size()) this rank owns (zero-extend + one
  /// allreduce — exact, every other rank contributes +0).  The span is
  /// arena-backed: valid until the next gather_full call.
  std::span<const double> gather_full(std::span<const double> local,
                                      std::size_t begin,
                                      std::size_t total);

  dist::Communicator& comm_;
  SolverSpec spec_;  // owning copy: x0 / groups / id outlive the caller's
  Trace trace_;
  EngineClock::time_point start_ = EngineClock::now();

 private:
  std::span<const double> reduce_grouped_sum();
  void run_round(std::size_t s_eff);
  void check_stops_after_round();
  void write_checkpoint();

  // Rows per grouped_sum block: bounds its staging to G·kTraceRowBlock
  // words (a 64-chunk grid stages 1 MiB) whatever the vector's length.
  static constexpr std::size_t kTraceRowBlock = 2048;

  // The per-round message plane: ONE collective per outer round, with the
  // stopping criteria riding as trailer sections (sized once, up front).
  // Slot 1 of the same arena backs gather_full's assembly buffer; slot 2
  // backs grouped_sum's message; slot 3 holds the staged chunk partials
  // and fold scratch levels both messages share (a fold never outlives
  // its call).
  enum : std::size_t {
    kMsgSlot = 0,
    kGatherSlot = 1,
    kTraceSlot = 2,
    kFoldSlot = 3
  };
  common::ReduceGrouping grouping_;
  GramCache gram_cache_;
  la::Workspace msg_ws_;
  dist::RoundMessage msg_{msg_ws_, kMsgSlot, kFoldSlot};
  dist::RoundMessage trace_msg_{msg_ws_, kTraceSlot, kFoldSlot};
  bool piggyback_objective_ = false;
  bool piggyback_wall_ = false;

  // Checkpoint-every plumbing: the writer and the tmp-path string persist
  // across checkpoints, so the steady-state path reuses their storage
  // (zero heap allocations after the first snapshot — asserted by
  // tests/core/test_steady_state.cpp).  Rank 0 hands the image to the
  // async writer thread instead of blocking the round loop on the disk
  // (created lazily at the first checkpoint, drained at finish()).
  std::size_t since_checkpoint_ = 0;
  io::SnapshotWriter ckpt_writer_;
  std::string ckpt_tmp_path_;
  std::unique_ptr<io::AsyncCheckpointWriter> ckpt_async_;

  // Rounds completed since the solve began: the round index.  Rides in
  // the snapshot (core/state_words), so a resumed solve continues it.
  std::size_t rounds_run_ = 0;

  std::size_t iterations_done_ = 0;
  std::size_t since_trace_ = 0;
  bool first_round_ = true;
  bool done_ = false;
  bool result_taken_ = false;
  StopReason reason_ = StopReason::kMaxIterations;
  bool have_prev_objective_ = false;
  double prev_objective_ = 0.0;
  bool have_prev_round_objective_ = false;
  double prev_round_objective_ = 0.0;
  std::size_t prev_round_objective_iter_ = 0;
};

// Engine factories (validate the spec, then construct).  The registry
// binds each algorithm id to one of these: the four least-squares ids to
// make_lasso_engine (which picks its mode from spec.family()), the two
// SVM ids to make_svm_engine.
std::unique_ptr<Solver> make_lasso_engine(dist::Communicator& comm,
                                          const data::Dataset& dataset,
                                          const data::Partition& rows,
                                          const SolverSpec& spec);
std::unique_ptr<Solver> make_svm_engine(dist::Communicator& comm,
                                        const data::Dataset& dataset,
                                        const data::Partition& cols,
                                        const SolverSpec& spec);

}  // namespace sa::core::detail
