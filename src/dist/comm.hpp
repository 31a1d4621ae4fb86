// Communication abstraction for the distributed solvers.
//
// The paper's algorithms are expressed against MPI collectives; this layer
// reproduces that programming model in-process.  A Communicator exposes the
// one collective the solver family needs (summing allreduce) plus the
// α-β-γ counters the cost model prices: every collective charges
// ceil(log2 P) latency rounds (the depth of a binomial reduction tree) and
// payload·rounds words along the critical path, exactly the quantities in
// the paper's Table I.
//
// The collective is blocking: allreduce_sum(data) returns with the sum
// in `data`.  The SA solvers save time by issuing fewer collectives, not
// by hiding them, so a round's whole collective — the entry skew, the
// combine and the copy-out — is one call the engine can time.
//
// The per-round message the solvers exchange is a packed, schema'd
// RoundMessage (dist/round_message.hpp) whose sections are enumerated here
// so CommStats can attribute traffic to them: the Gram triangle, the dot
// blocks, and the piggy-backed objective / stop-flag words all ride ONE
// collective per outer round.
//
// Thread-safety contract: a Communicator instance is owned by exactly one
// rank (one thread).  Concrete backends synchronise ranks internally (see
// thread_comm.hpp); callers never share one Communicator object across
// threads.  Counter mutation (add_flops, set_stats, …) is rank-local and
// requires no locking.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace sa::dist {

/// Sections of the per-round message plane (see dist/round_message.hpp).
/// kGram/kDots1/kDots2 carry the algorithm's fused payload; kObjective,
/// kStopFlags, and kChecksum are the piggy-backed trailer sections that
/// make the objective-tolerance / wall-budget criteria and corruption
/// detection cost zero extra messages.
enum class RoundSection : std::size_t {
  kGram = 0,   ///< packed upper triangle of the sampled Gram
  kDots1,      ///< first dot block (Yᵀỹ, or Yᵀr̃ / Yᵀx for one-rhs solvers)
  kDots2,      ///< second dot block (Yᵀz̃, accelerated Lasso only)
  kObjective,  ///< piggy-backed local objective partial (1 word when on)
  kStopFlags,  ///< piggy-backed stop flags (rank 0's clock, 1 word when on)
  kChecksum,   ///< piggy-backed FNV-1a body checksum (1 word when fault
               ///< detection is on; see RoundMessage::seal)
};
inline constexpr std::size_t kRoundSectionCount = 6;

/// What kind of communication failure was detected.
enum class FailureKind {
  kTimeout,     ///< a round's collective missed its deadline
  kCorruption,  ///< the reduced payload failed checksum validation
  kRankLost,    ///< a peer rank is gone (connection reset, process death)
};

const char* to_string(FailureKind kind);

/// Typed error surface for detected communication failures.  Thrown by
/// deadline-armed waits, checksum-validated RoundMessage reductions, and
/// the hardened broadcast_bytes; caught by the EngineBase recovery loop
/// (SolverSpec::max_retries), which rolls back to the last checkpoint and
/// replays the round.
class CommFailure : public std::runtime_error {
 public:
  CommFailure(FailureKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  FailureKind kind() const { return kind_; }

 private:
  FailureKind kind_;
};

/// FNV-1a 64-bit hash of a double buffer's bytes — the transport-receipt
/// digest fault detection compares against (see
/// Communicator::last_reduce_digest).
std::uint64_t payload_digest(std::span<const double> data);

/// Traffic attributed to one RoundMessage section.
struct SectionTraffic {
  std::size_t collectives = 0;  ///< collectives the section rode (non-empty)
  std::size_t words = 0;        ///< payload·rounds words along the path

  std::size_t bytes() const { return 8 * words; }
};

/// Metered communication/computation counters of one rank.
///
/// `flops` are data-parallel (they shrink as 1/P when the data is spread
/// over more ranks); `replicated_flops` are redundant work every rank
/// repeats (eigen-solves, the SA inner recurrences) and do not scale.
/// `messages` counts latency rounds, `words` the payload moved along the
/// critical path, and `collectives` the number of allreduce invocations.
/// `sections` splits the words/collectives by RoundMessage section, so the
/// benches can show how much of a round's payload the Gram triangle vs the
/// piggy-backed stopping words account for.
struct CommStats {
  std::size_t flops = 0;
  std::size_t replicated_flops = 0;
  std::size_t messages = 0;
  std::size_t words = 0;
  std::size_t collectives = 0;
  std::array<SectionTraffic, kRoundSectionCount> sections{};

  // Round-phase wall-time meters (seconds), charged by the engine round
  // skeleton so each phase is measurable: how long this rank spent
  // packing messages, inside the round's collective, applying the reduced
  // sums, and serializing/handing off checkpoints.  These are measured,
  // not replayed: snapshots exclude them (the wire format is unchanged),
  // so a resumed run restarts them from zero, and bitwise-parity checks
  // must compare the counters above, never the timers.
  double pack_seconds = 0.0;        ///< sample + pack
  /// The whole round collective (RoundMessage::reduce): waiting for the
  /// slowest rank to arrive, the combine, and the copy-out.
  double wait_seconds = 0.0;
  double apply_seconds = 0.0;       ///< unpack + inner iterations
  double checkpoint_seconds = 0.0;  ///< serialize + hand off snapshots

  // Fault-tolerance counters.  Like the wall timers, these are measured,
  // not replayed: a rollback restores the metered counters above to the
  // recovery point but carries these forward (the failures really
  // happened), and snapshots exclude them — a fault-free run and a
  // recovered one stay bitwise identical in everything the conformance
  // suites compare.
  std::size_t retries = 0;           ///< rounds replayed after a failure
  std::size_t timeouts = 0;          ///< deadline-missed collectives
  std::size_t corruptions = 0;       ///< checksum-rejected reductions
  std::size_t rank_losses = 0;       ///< lost-peer failures observed
  std::size_t checkpoint_skips = 0;  ///< async checkpoint submissions refused
  double recovery_seconds = 0.0;     ///< backoff + rollback wall time

  // Which kernel table the solve executed with: the numeric value of
  // la::simd::Isa (0 scalar, 1 sse2, 2 avx2), stamped by the engine at
  // finish().  Descriptive provenance like the timers — excluded from
  // snapshots (a resume may legitimately run at a different ISA level)
  // and from every bitwise-parity comparison.
  std::size_t kernel_isa = 0;

  /// Bytes corresponding to `words` (the library moves 8-byte doubles).
  std::size_t bytes() const { return 8 * words; }

  const SectionTraffic& section(RoundSection s) const {
    return sections[static_cast<std::size_t>(s)];
  }
};

/// Latency rounds of a binomial-tree collective over `ranks` ranks:
/// ceil(log2 ranks), 0 for a single rank.
std::size_t collective_rounds(int ranks);

/// Abstract communicator: the solver-facing API plus metering.
///
/// Metering lives in this base class so every backend charges identically;
/// backends only implement the data movement (`do_allreduce_sum`).
class Communicator {
 public:
  virtual ~Communicator() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// In-place summing allreduce: after the call, `data` holds the
  /// elementwise sum of every rank's buffer, identical on all ranks.
  /// Backends combine in a fixed order (ThreadComm: a binomial tree), so
  /// results are run-to-run deterministic.  They are rank-count
  /// reproducible only for data whose summation grouping cannot show in
  /// the bits (exclusive slots, integers) or that is laid out as the
  /// reduction grouping's tree nodes (see dist/round_message.hpp).
  void allreduce_sum(std::span<double> data);

  /// Convenience overload for owning vectors.
  void allreduce_sum(std::vector<double>& data) {
    allreduce_sum(std::span<double>(data));
  }

  /// Scalar allreduce; returns the sum over all ranks.
  double allreduce_sum_scalar(double value);

  /// Collective: replicates `bytes` from rank `root` to every rank (the
  /// snapshot subsystem's scatter — rank 0 owns the file, the payload
  /// travels through the communicator, so every backend inherits resume
  /// support with no format changes).  Built on the summing allreduce:
  /// each byte rides as one exactly-representable double, non-root ranks
  /// contribute zeros.  Non-root buffers are resized to the root's size.
  /// The root's header (length + its FNV-1a fold, plus a payload digest)
  /// is validated on EVERY rank — including the root, whose bytes are
  /// rewritten from the reduced chunks — so a dropped or corrupted
  /// transfer raises the same CommFailure(kCorruption) everywhere instead
  /// of silently trusting whatever arrived.  Call on every rank with the
  /// same `root`.  Virtual so fault-injecting decorators can intercept it.
  virtual void broadcast_bytes(std::vector<std::uint8_t>& bytes,
                               int root = 0);

  // -- fault detection ------------------------------------------------
  // The transport-receipt digest protocol: with the digest enabled, the
  // base class hashes the reduced buffer the moment the backend delivers
  // it (end of allreduce_sum).  A consumer that re-hashes
  // its copy later — RoundMessage::reduce does, when the solve runs
  // fault-tolerant — detects any corruption between delivery and use.
  // Decorators that model in-transit corruption (dist::FaultyComm) forward
  // these to the wrapped backend, so the receipt attests the CLEAN
  // delivery and the injected flip is caught like a real one.

  /// Turns the per-collective delivery digest on or off (off by default —
  /// hashing every reduction is not free).
  virtual void enable_reduce_digest(bool on) { digest_on_ = on; }

  /// True when delivery digests are being recorded.
  virtual bool reduce_digest_enabled() const { return digest_on_; }

  /// Digest of the most recently delivered reduction (payload_digest of
  /// the buffer as the backend handed it back); meaningful only while
  /// enable_reduce_digest(true) is in effect.
  virtual std::uint64_t last_reduce_digest() const { return last_digest_; }

  /// Tags the NEXT allreduce_sum as round `round`'s collective and arms
  /// it with `deadline_seconds` (0: none).  Fault injection keys on this
  /// tag, so instrumentation traffic (snapshots, trace evaluation,
  /// gathers) is never faulted — only the round plane.  A backend that
  /// can tell the collective exceeded the deadline throws
  /// CommFailure(kTimeout).  The tag and deadline apply to exactly one
  /// collective: allreduce_sum clears them whether it returns or throws.
  void tag_round(std::size_t round, double deadline_seconds = 0.0) {
    round_tag_ = round;
    round_tagged_ = true;
    round_deadline_ = deadline_seconds;
  }

  // -- fault/recovery counters (see CommStats) ------------------------
  void note_comm_failure(FailureKind kind);
  void note_retry() { stats_.retries += 1; }
  void note_checkpoint_skip() { stats_.checkpoint_skips += 1; }
  void add_recovery_seconds(double s) { stats_.recovery_seconds += s; }

  /// Metered counters accumulated so far on this rank.
  const CommStats& stats() const { return stats_; }

  /// Overwrites the counters (used to exclude instrumentation-only
  /// communication from the metering — snapshot, evaluate, restore).
  void set_stats(const CommStats& stats) { stats_ = stats; }

  /// Charges data-parallel flops (work that shrinks with 1/P).
  void add_flops(std::size_t flops) { stats_.flops += flops; }

  /// Charges replicated flops (redundant work every rank repeats).
  void add_replicated_flops(std::size_t flops) {
    stats_.replicated_flops += flops;
  }

  // Round-phase wall-time charging (see CommStats); called by the engine
  // round skeleton only.
  void add_pack_seconds(double s) { stats_.pack_seconds += s; }
  void add_wait_seconds(double s) { stats_.wait_seconds += s; }
  void add_apply_seconds(double s) { stats_.apply_seconds += s; }
  void add_checkpoint_seconds(double s) { stats_.checkpoint_seconds += s; }

  /// Attributes `words` payload words of the current (or just-charged)
  /// collective to section `s`: the section's word counter grows by
  /// words·rounds and its collective counter by one.  Called by
  /// RoundMessage, which knows the schema; no-op for empty sections.
  void note_section(RoundSection s, std::size_t words);

 protected:
  /// Backend hook: performs the actual elementwise sum across ranks.
  virtual void do_allreduce_sum(std::span<double> data) = 0;

  /// Deadline (seconds) the running collective was armed with via
  /// tag_round(), 0 when none — readable from inside do_allreduce_sum by
  /// backends/decorators that can detect a stall.
  double round_deadline() const { return round_deadline_; }

  /// True (and `*round` filled) when the running collective was tagged
  /// as a solver round via tag_round().
  bool tagged_round(std::size_t* round) const {
    if (round_tagged_ && round != nullptr) *round = round_tag_;
    return round_tagged_;
  }

 private:
  void charge_collective(std::size_t payload_words);

  CommStats stats_;

  // Delivery digest + round tagging (fault detection; see above).
  bool digest_on_ = false;
  std::uint64_t last_digest_ = 0;
  std::size_t round_tag_ = 0;
  bool round_tagged_ = false;
  double round_deadline_ = 0.0;
};

}  // namespace sa::dist

// The serial backend ships with the interface: solve() and most tests
// run on SerialComm, so the two are inseparable in practice (include
// order is safe under the header guards).
#include "dist/serial_comm.hpp"  // IWYU pragma: export
