// Fault-injection plane tests: the FaultPlan grammar must parse and
// round-trip, FaultyComm must be transparent when no event fires, every
// fault kind must behave as documented (delay completes, stall raises a
// timeout only under an armed deadline, corruption is caught by the
// digest check — not by the injector — and a dropped broadcast fails the
// payload checksum on every rank together), and a throwing fault must
// leave the communicator reusable for the replay.
#include "dist/fault.hpp"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "dist/round_message.hpp"
#include "dist/thread_comm.hpp"
#include "la/workspace.hpp"

namespace sa::dist {
namespace {

// ---------------------------------------------------------------------
// FaultPlan grammar
// ---------------------------------------------------------------------

TEST(FaultPlan, ParsesTheGrammarAndRoundTrips) {
  const std::string text = "1337:delay@1,stall@2/0,corrupt@5,drop@0/3,lost@7";
  const FaultPlan plan = FaultPlan::parse(text);
  EXPECT_EQ(plan.seed, 1337u);
  ASSERT_EQ(plan.events.size(), 5u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kDelay);
  EXPECT_EQ(plan.events[0].index, 1u);
  EXPECT_EQ(plan.events[0].rank, -1);  // culprit derived from the seed
  EXPECT_EQ(plan.events[1].kind, FaultKind::kStall);
  EXPECT_EQ(plan.events[1].rank, 0);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kCorrupt);
  EXPECT_EQ(plan.events[2].index, 5u);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kDropBroadcast);
  EXPECT_EQ(plan.events[3].rank, 3);
  EXPECT_EQ(plan.events[4].kind, FaultKind::kRankLost);
  EXPECT_EQ(plan.format(), text);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(FaultPlan{}.empty());
}

TEST(FaultPlan, MalformedSpecsAreRejectedWithDescriptiveErrors) {
  EXPECT_THROW(FaultPlan::parse("delay@1"), sa::PreconditionError);
  EXPECT_THROW(FaultPlan::parse("7:"), sa::PreconditionError);
  EXPECT_THROW(FaultPlan::parse("7:jitter@1"), sa::PreconditionError);
  EXPECT_THROW(FaultPlan::parse("7:delay"), sa::PreconditionError);
  EXPECT_THROW(FaultPlan::parse("7:delay@x"), sa::PreconditionError);
  EXPECT_THROW(FaultPlan::parse("x:delay@1"), sa::PreconditionError);
  EXPECT_THROW(FaultPlan::parse("7:delay@1/x"), sa::PreconditionError);
  try {
    FaultPlan::parse("7:jitter@1");
    FAIL() << "expected PreconditionError";
  } catch (const sa::PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("jitter"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("delay|stall|corrupt"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------
// Transparency: no event, no perturbation
// ---------------------------------------------------------------------

TEST(FaultyComm, IsTransparentWhenNoEventFires) {
  SerialComm inner;
  FaultyComm comm(inner, FaultPlan::parse("1:delay@50"));
  std::vector<double> v{1.5, -2.0, 3.25};
  const std::vector<double> original = v;
  comm.allreduce_sum(v);
  EXPECT_EQ(v, original);
  EXPECT_EQ(comm.allreduce_sum_scalar(4.5), 4.5);
  // Metering is charged on the DECORATOR — the communicator the engine
  // holds — exactly as on an unwrapped backend.
  EXPECT_EQ(comm.stats().collectives, 2u);
  EXPECT_EQ(comm.faults_injected(), 0u);
}

TEST(FaultyComm, WrapsAMultiRankBackendTransparently) {
  const FaultPlan plan = FaultPlan::parse("1:delay@50,corrupt@60");
  std::vector<double> got(4, 0.0);
  run_distributed(4, [&](Communicator& comm) {
    FaultyComm faulty(comm, plan);
    EXPECT_EQ(faulty.size(), 4);
    got[faulty.rank()] = faulty.allreduce_sum_scalar(
        static_cast<double>(faulty.rank() + 1));
  });
  for (double v : got) EXPECT_EQ(v, 10.0);  // Σ 1..4
}

TEST(FaultyComm, UntaggedCollectivesAreNeverFaulted) {
  // Instrumentation traffic carries no round tag: an event scheduled for
  // round 0 must not fire on an untagged collective.
  SerialComm inner;
  FaultyComm comm(inner, FaultPlan::parse("3:corrupt@0,lost@0"));
  std::vector<double> v{7.0, 8.0};
  comm.allreduce_sum(v);
  EXPECT_EQ(v[0], 7.0);
  EXPECT_EQ(v[1], 8.0);
  EXPECT_EQ(comm.faults_injected(), 0u);
}

TEST(FaultyComm, ARoundTagAppliesToExactlyOneCollective) {
  // Each event is listed twice, so it could fire twice.  Only the tagged
  // collective is faulted — whether it returns or throws; the next
  // collective, untagged, is instrumentation traffic and passes clean.
  SerialComm inner;
  FaultyComm comm(inner,
                  FaultPlan::parse("9:corrupt@0,corrupt@0,lost@1,lost@1"));
  std::vector<double> v{1.0, 2.0, 3.0};
  const std::vector<double> original = v;
  comm.tag_round(0);
  comm.allreduce_sum(v);
  EXPECT_NE(v, original);
  EXPECT_EQ(comm.faults_injected(), 1u);
  v = original;
  comm.allreduce_sum(v);
  EXPECT_EQ(v, original);
  EXPECT_EQ(comm.faults_injected(), 1u);

  comm.tag_round(1, 0.25);
  EXPECT_THROW(comm.allreduce_sum(v), CommFailure);
  EXPECT_EQ(comm.faults_injected(), 2u);
  comm.allreduce_sum(v);
  EXPECT_EQ(v, original);
  EXPECT_EQ(comm.faults_injected(), 2u);
}

// ---------------------------------------------------------------------
// Per-kind semantics
// ---------------------------------------------------------------------

TEST(FaultyComm, DelayCompletesTheRoundWithCorrectValues) {
  SerialComm inner;
  FaultyComm comm(inner, FaultPlan::parse("5:delay@0"));
  std::vector<double> v{2.5};
  comm.tag_round(0, 0.25);  // a delay never trips the deadline machinery
  comm.allreduce_sum(v);
  EXPECT_EQ(v[0], 2.5);
  EXPECT_EQ(comm.faults_injected(), 1u);
}

TEST(FaultyComm, StallRaisesTimeoutOnlyWhenADeadlineIsArmed) {
  SerialComm inner;
  FaultyComm comm(inner, FaultPlan::parse("4:stall@0,stall@1"));
  std::vector<double> v{2.0};
  comm.tag_round(0, 0.25);
  try {
    comm.allreduce_sum(v);
    FAIL() << "expected CommFailure";
  } catch (const CommFailure& failure) {
    EXPECT_EQ(failure.kind(), FailureKind::kTimeout);
    EXPECT_NE(std::string(failure.what()).find("deadline"),
              std::string::npos);
  }
  // The throwing collective cleared the tag and the deadline: the
  // communicator is immediately reusable for the replay.  Without a
  // deadline the stall is undetectable and degrades to a delay.
  comm.tag_round(1);
  comm.allreduce_sum(v);
  EXPECT_EQ(v[0], 2.0);
  EXPECT_EQ(comm.faults_injected(), 2u);
}

TEST(FaultyComm, LostPeerRaisesRankLost) {
  SerialComm inner;
  FaultyComm comm(inner, FaultPlan::parse("2:lost@3"));
  std::vector<double> v{1.0};
  comm.tag_round(3);
  try {
    comm.allreduce_sum(v);
    FAIL() << "expected CommFailure";
  } catch (const CommFailure& failure) {
    EXPECT_EQ(failure.kind(), FailureKind::kRankLost);
    EXPECT_NE(std::string(failure.what()).find("lost"), std::string::npos);
  }
}

TEST(FaultyComm, CorruptReductionIsCaughtByTheDigestCheckDownstream) {
  // The injector flips a bit and raises nothing itself: detection has to
  // happen in RoundMessage::reduce, comparing the delivered buffer
  // against the inner backend's clean delivery receipt.
  SerialComm inner;
  FaultyComm comm(inner, FaultPlan::parse("9:corrupt@0"));
  comm.enable_reduce_digest(true);
  la::Workspace ws;
  RoundMessage msg(ws);
  msg.set_trailer_sizes(1, 1, 1);
  const std::span<double> body = msg.layout(3, 2, 0);
  for (std::size_t i = 0; i < body.size(); ++i)
    body[i] = static_cast<double>(i + 1);
  msg.section(RoundSection::kObjective)[0] = 4.0;
  msg.seal();
  comm.tag_round(0);
  try {
    msg.reduce(comm);
    FAIL() << "expected CommFailure";
  } catch (const CommFailure& failure) {
    EXPECT_EQ(failure.kind(), FailureKind::kCorruption);
    EXPECT_NE(std::string(failure.what()).find("checksum"),
              std::string::npos);
  }
  EXPECT_EQ(comm.faults_injected(), 1u);
  // Reusable for the replay: repack (as the engine's replay does), and the
  // consumed event no longer fires — the digest check passes.
  for (std::size_t i = 0; i < body.size(); ++i)
    body[i] = static_cast<double>(i + 1);
  msg.seal();
  comm.tag_round(0);
  msg.reduce(comm);
  EXPECT_EQ(body[0], 1.0);
}

TEST(FaultyComm, CorruptionGoesUndetectedWithoutTheDigest) {
  // Without fault detection enabled the flipped bit sails through — the
  // failure mode the checksum trailer exists to close.
  SerialComm inner;
  FaultyComm comm(inner, FaultPlan::parse("9:corrupt@0"));
  std::vector<double> v{1.0, 2.0, 3.0};
  const std::vector<double> original = v;
  comm.tag_round(0);
  comm.allreduce_sum(v);
  EXPECT_NE(v, original);
  EXPECT_EQ(comm.faults_injected(), 1u);
}

TEST(FaultyComm, DroppedBroadcastFailsChecksumOnEveryRank) {
  const FaultPlan plan = FaultPlan::parse("11:drop@0");
  std::array<int, 4> caught{};
  run_distributed(4, [&](Communicator& comm) {
    FaultyComm faulty(comm, plan);
    std::vector<std::uint8_t> bytes;
    if (faulty.rank() == 0) {
      bytes.resize(257);
      for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(i * 7 + 1);
    }
    try {
      faulty.broadcast_bytes(bytes, 0);
    } catch (const CommFailure& failure) {
      // All ranks observe the SAME failure (they all adopt the reduced
      // chunks), so catching per-rank leaves the team barrier-aligned.
      if (failure.kind() == FailureKind::kCorruption &&
          std::string(failure.what()).find("checksum") != std::string::npos)
        caught[faulty.rank()] = 1;
    }
    // The drop was consumed: the next broadcast is clean end-to-end.
    std::vector<std::uint8_t> again;
    if (faulty.rank() == 0) again = {1, 2, 3};
    faulty.broadcast_bytes(again, 0);
    EXPECT_EQ(again, (std::vector<std::uint8_t>{1, 2, 3}));
  });
  for (int c : caught) EXPECT_EQ(c, 1);
}

// ---------------------------------------------------------------------
// Hardened broadcast: the length header itself is validated
// ---------------------------------------------------------------------

/// Decorator corrupting word 0 (the length) of the first allreduce inside
/// a broadcast — the header word a flaky transport could damage.  Applied
/// identically on every rank, like FaultyComm's faults.
class LengthTamperComm final : public Communicator {
 public:
  explicit LengthTamperComm(Communicator& inner) : inner_(inner) {}
  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }

 protected:
  void do_allreduce_sum(std::span<double> data) override {
    inner_.allreduce_sum(data);
    if (++calls_ == 1 && !data.empty()) data[0] += 1.0;
  }

 private:
  Communicator& inner_;
  int calls_ = 0;
};

TEST(BroadcastBytes, TamperedLengthHeaderIsRejectedNotTrusted) {
  std::array<int, 2> caught{};
  run_distributed(2, [&](Communicator& comm) {
    LengthTamperComm tamper(comm);
    std::vector<std::uint8_t> bytes;
    if (tamper.rank() == 0) bytes = {9, 8, 7, 6};
    try {
      tamper.broadcast_bytes(bytes, 0);
    } catch (const CommFailure& failure) {
      if (failure.kind() == FailureKind::kCorruption &&
          std::string(failure.what()).find("length") != std::string::npos)
        caught[tamper.rank()] = 1;
    }
  });
  for (int c : caught) EXPECT_EQ(c, 1);
}

// ---------------------------------------------------------------------
// Checksum trailer: rides the round's one collective, priced per section
// ---------------------------------------------------------------------

TEST(RoundMessage, ChecksumTrailerRidesTheSameCollective) {
  const int p = 4;
  const std::size_t rounds = collective_rounds(p);
  const auto stats = run_distributed(p, [&](Communicator& comm) {
    comm.enable_reduce_digest(true);
    la::Workspace ws;
    RoundMessage msg(ws);
    msg.set_trailer_sizes(1, 1, 1);
    msg.layout(3, 2, 0);
    for (std::size_t i = 0; i < 5; ++i) msg.packed()[i] = 1.0;
    msg.seal();
    msg.reduce(comm);  // clean delivery: the digest check passes
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_EQ(msg.packed()[i], static_cast<double>(p));
  });
  for (const CommStats& s : stats) {
    EXPECT_EQ(s.collectives, 1u);  // still ONE collective for the schema
    EXPECT_EQ(s.words, 8 * rounds);
    EXPECT_EQ(s.section(RoundSection::kChecksum).collectives, 1u);
    EXPECT_EQ(s.section(RoundSection::kChecksum).words, rounds);
  }
}

TEST(RoundMessage, SealIsANoOpWithoutTheChecksumSection) {
  SerialComm comm;
  la::Workspace ws;
  RoundMessage msg(ws);
  msg.set_trailer_sizes(1, 1, 0);
  msg.layout(3, 2, 0);
  EXPECT_EQ(msg.words(RoundSection::kChecksum), 0u);
  msg.seal();  // must not touch anything
  msg.reduce(comm);
  EXPECT_EQ(msg.total_words(), 7u);
}

}  // namespace
}  // namespace sa::dist
