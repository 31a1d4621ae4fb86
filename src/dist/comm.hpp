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
/// kGram/kDots1/kDots2 carry the algorithm's fused payload; kObjective
/// and kStopFlags are the piggy-backed trailer sections that make the
/// objective-tolerance / wall-budget criteria cost zero extra messages.
/// kChecksum is always 0 words; it stays so that the section count, and
/// with it the snapshot's CommStats layout, does not change.
enum class RoundSection : std::size_t {
  kGram = 0,   ///< packed upper triangle of the sampled Gram
  kDots1,      ///< first dot block (Yᵀỹ, or Yᵀr̃ / Yᵀx for one-rhs solvers)
  kDots2,      ///< second dot block (Yᵀz̃, accelerated Lasso only)
  kObjective,  ///< piggy-backed local objective partial (1 word when on)
  kStopFlags,  ///< piggy-backed stop flags (rank 0's clock, 1 word when on)
  kChecksum,   ///< always empty (0 words)
};
inline constexpr std::size_t kRoundSectionCount = 6;

/// A collective delivered data that failed validation — thrown by
/// broadcast_bytes when the received length header or payload does not
/// match the root's digest.
class CommFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

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

  // Async checkpoint submissions refused because the previous write was
  // still in flight.  Measured, like the wall timers: snapshots exclude
  // it.
  std::size_t checkpoint_skips = 0;

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
  /// rewritten from the reduced chunks — so a damaged transfer raises the
  /// same CommFailure everywhere instead of silently trusting whatever
  /// arrived.  Call on every rank with the same `root`.
  void broadcast_bytes(std::vector<std::uint8_t>& bytes, int root = 0);

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
  void note_checkpoint_skip() { stats_.checkpoint_skips += 1; }

  /// Attributes `words` payload words of the current (or just-charged)
  /// collective to section `s`: the section's word counter grows by
  /// words·rounds and its collective counter by one.  Called by
  /// RoundMessage, which knows the schema; no-op for empty sections.
  void note_section(RoundSection s, std::size_t words);

 protected:
  /// Backend hook: performs the actual elementwise sum across ranks.
  virtual void do_allreduce_sum(std::span<double> data) = 0;

 private:
  void charge_collective(std::size_t payload_words);

  CommStats stats_;
};

}  // namespace sa::dist

// The serial backend ships with the interface: solve() and most tests
// run on SerialComm, so the two are inseparable in practice (include
// order is safe under the header guards).
#include "dist/serial_comm.hpp"  // IWYU pragma: export
