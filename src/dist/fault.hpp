// Deterministic fault injection for the communication plane.
//
// FaultyComm is a decorator Communicator: it wraps any backend and
// injects failures according to a seeded FaultPlan, so every failure mode
// the recovery loop must survive — a slow rank, a stalled collective, a
// corrupted reduction, a dropped broadcast, a lost peer — is reproducible
// bit-for-bit in a unit test (the design cortx-motr's fault-injection
// service takes to its extreme: failure is an input, not an accident).
//
// Fault plan grammar (CLI `--inject-faults`, FaultPlan::parse):
//
//   <seed>:<event>[,<event>...]
//   event := <kind>@<index>[/<rank>]
//   kind  := delay | stall | corrupt | drop | lost
//
// e.g. "1337:delay@1,stall@2/0,corrupt@5".  For delay/stall/corrupt/lost
// the index is the solver ROUND the event fires in (the engine tags each
// round's collective via Communicator::tag_round, so instrumentation
// traffic is never faulted); for drop it is the broadcast_bytes
// invocation index.  The optional rank names the culprit; omitted, it is
// derived from the seed.  Listing the same event twice makes the fault
// repeat on replay — how the retry-exhaustion paths are tested.
//
// Coordination contract: every rank wraps its endpoint in a FaultyComm
// built from the SAME plan, and all injection decisions are pure
// functions of (plan, round/index) — never of wall time or rank-local
// history — so the ranks act in lockstep.  Throwing faults complete the
// inner collective FIRST and then throw on every rank simultaneously;
// barrier-synchronized backends (ThreadComm) therefore never deadlock or
// abort the team, and the engine's recovery runs collectively.
//
// What each kind does:
//   delay    the culprit rank sleeps a seed-derived few milliseconds after
//            the round's collective completes, then the round proceeds —
//            recoverable jitter, no failure is raised.
//   stall    the culprit misses the round deadline: when the collective
//            was armed with one (SolverSpec::round_deadline), every rank
//            throws CommFailure(kTimeout); with no deadline armed the
//            stall degrades to a delay (nothing detects it — the point of
//            deadlines).
//   corrupt  after the reduction completes, one seed-chosen mantissa bit
//            of the delivered buffer is flipped (identically on every
//            rank).  Detection is downstream and real: the digest check
//            in RoundMessage::reduce raises CommFailure(kCorruption).
//   drop     zeroes one reduced payload chunk of the next broadcast_bytes
//            — caught by the broadcast's own checksum validation.
//   lost     the peer is gone: every rank throws CommFailure(kRankLost)
//            after the inner collective completes.
//
// This decorator is the only place a round deadline is enforced: the
// ThreadComm barriers never time out, so a real stall there blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dist/comm.hpp"

namespace sa::dist {

enum class FaultKind {
  kDelay,
  kStall,
  kCorrupt,
  kDropBroadcast,
  kRankLost,
};

const char* to_string(FaultKind kind);

/// One scheduled fault.  `index` is the solver round (broadcast index for
/// kDropBroadcast); `rank < 0` derives the culprit from the plan seed.
struct FaultEvent {
  FaultKind kind = FaultKind::kDelay;
  std::size_t index = 0;
  int rank = -1;
};

/// A deterministic, seeded schedule of faults.
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  /// Parses the "<seed>:<kind>@<index>[/<rank>],..." grammar above.
  /// Throws PreconditionError naming the defect on malformed input.
  static FaultPlan parse(const std::string& text);

  /// The plan re-rendered in its canonical grammar (round-trips parse).
  std::string format() const;
};

/// Decorator communicator injecting the plan's faults into the wrapped
/// backend.  One FaultyComm per rank, all built from the same plan; the
/// wrapped communicator must outlive it.  Untagged collectives (snapshot
/// gathers, trace evaluation) pass through untouched.
class FaultyComm final : public Communicator {
 public:
  FaultyComm(Communicator& inner, FaultPlan plan);

  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }

  // The delivery digest is the INNER backend's receipt: it attests the
  // clean reduction, taken before this decorator's corruption runs —
  // exactly how a transport-level checksum would relate to a buffer
  // corrupted on the host side.
  void enable_reduce_digest(bool on) override {
    inner_.enable_reduce_digest(on);
  }
  bool reduce_digest_enabled() const override {
    return inner_.reduce_digest_enabled();
  }
  std::uint64_t last_reduce_digest() const override {
    return inner_.last_reduce_digest();
  }

  void broadcast_bytes(std::vector<std::uint8_t>& bytes,
                       int root = 0) override;

  /// Faults fired so far on this rank (consumed events).
  std::size_t faults_injected() const { return injected_; }

 protected:
  void do_allreduce_sum(std::span<double> data) override;

 private:
  /// First unconsumed event of `kind` scheduled at `index`, or nullptr.
  /// Consuming marks it spent; the per-rank consumed sets stay identical
  /// because every rank queries in the same order.
  std::size_t find_event(FaultKind kind, std::size_t index);
  void consume(std::size_t event);
  int culprit(std::size_t event) const;
  std::uint64_t event_hash(std::size_t event) const;
  void inject_round_faults(std::size_t round, std::span<double> data);

  Communicator& inner_;
  FaultPlan plan_;
  std::vector<bool> consumed_;
  std::size_t injected_ = 0;
  std::size_t broadcasts_ = 0;      // broadcast_bytes invocation counter
  bool drop_armed_ = false;         // next broadcast loses a payload chunk
  std::size_t bcast_allreduces_ = 0;  // collectives inside the broadcast
};

}  // namespace sa::dist
