// Communicator-layer tests: the thread-backed allreduce must be
// deterministic (the fixed binomial-tree pairing, bit for bit), the α-β-γ
// counters must follow the tree-collective model exactly, failures on
// one rank must not hang the team, and broadcast_bytes must reject a
// damaged transfer on every rank.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "data/rng.hpp"
#include "dist/cost_model.hpp"
#include "dist/round_message.hpp"
#include "dist/thread_comm.hpp"
#include "la/workspace.hpp"

namespace sa::dist {
namespace {

std::vector<double> rank_contribution(int rank, std::size_t n) {
  data::SplitMix64 rng(1000 + static_cast<std::uint64_t>(rank));
  std::vector<double> v(n);
  for (double& x : v) x = rng.next_normal();
  return v;
}

/// The binomial-tree sum of every rank's contribution, computed serially:
/// in round `step`, rank j ≡ 0 (mod 2·step) absorbs j + step — the
/// pairing ThreadComm combines with (((c0+c1)+(c2+c3)) at P = 4).
std::vector<double> binomial_reference(int p, std::size_t n) {
  std::vector<std::vector<double>> acc;
  for (int r = 0; r < p; ++r) acc.push_back(rank_contribution(r, n));
  for (int step = 1; step < p; step *= 2)
    for (int j = 0; j + step < p; j += 2 * step)
      for (std::size_t i = 0; i < n; ++i) acc[j][i] += acc[j + step][i];
  return acc[0];
}

class RankSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankSweep, AllreduceMatchesBinomialPairingBitForBit) {
  const int p = GetParam();
  const std::size_t n = 257;  // not a multiple of the chunking
  const std::vector<double> want = binomial_reference(p, n);

  std::vector<std::vector<double>> got(p);
  run_distributed(p, [&](Communicator& comm) {
    std::vector<double> mine = rank_contribution(comm.rank(), n);
    comm.allreduce_sum(mine);
    got[comm.rank()] = std::move(mine);
  });

  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(got[r].size(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(got[r][i], want[i]) << "rank " << r << " element " << i;
  }
}

TEST_P(RankSweep, ScalarAllreduceSumsEveryRank) {
  const int p = GetParam();
  std::vector<double> got(p);
  run_distributed(p, [&](Communicator& comm) {
    got[comm.rank()] =
        comm.allreduce_sum_scalar(static_cast<double>(comm.rank() + 1));
  });
  const double want = static_cast<double>(p) * (p + 1) / 2.0;
  for (int r = 0; r < p; ++r) EXPECT_EQ(got[r], want);
}

TEST_P(RankSweep, CountersFollowTreeCollectiveModel) {
  const int p = GetParam();
  const std::size_t rounds = collective_rounds(p);
  const auto stats = run_distributed(p, [&](Communicator& comm) {
    std::vector<double> buf(10, 1.0);
    comm.allreduce_sum(buf);
    comm.allreduce_sum_scalar(2.0);
    comm.add_flops(100);
    comm.add_replicated_flops(7);
  });
  ASSERT_EQ(stats.size(), static_cast<std::size_t>(p));
  for (const CommStats& s : stats) {
    EXPECT_EQ(s.collectives, 2u);
    EXPECT_EQ(s.messages, 2 * rounds);
    EXPECT_EQ(s.words, 11 * rounds);
    EXPECT_EQ(s.flops, 100u);
    EXPECT_EQ(s.replicated_flops, 7u);
    EXPECT_EQ(s.bytes(), 8 * 11 * rounds);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, RankSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

TEST(SerialComm, AllreduceIsIdentityAndChargesNoCommunication) {
  SerialComm comm;
  std::vector<double> v{1.5, -2.0, 3.25};
  const std::vector<double> original = v;
  comm.allreduce_sum(v);
  EXPECT_EQ(v, original);
  EXPECT_EQ(comm.allreduce_sum_scalar(4.5), 4.5);
  EXPECT_EQ(comm.stats().collectives, 2u);
  EXPECT_EQ(comm.stats().messages, 0u);  // collective_rounds(1) == 0
  EXPECT_EQ(comm.stats().words, 0u);
}

TEST(SerialComm, SnapshotRestoreExcludesInstrumentation) {
  SerialComm comm;
  comm.add_flops(10);
  const CommStats snapshot = comm.stats();
  comm.allreduce_sum_scalar(1.0);
  comm.add_flops(999);
  comm.set_stats(snapshot);
  EXPECT_EQ(comm.stats().flops, 10u);
  EXPECT_EQ(comm.stats().collectives, 0u);
}

TEST(CollectiveRounds, CeilLog2) {
  EXPECT_EQ(collective_rounds(1), 0u);
  EXPECT_EQ(collective_rounds(2), 1u);
  EXPECT_EQ(collective_rounds(3), 2u);
  EXPECT_EQ(collective_rounds(4), 2u);
  EXPECT_EQ(collective_rounds(5), 3u);
  EXPECT_EQ(collective_rounds(8), 3u);
  EXPECT_EQ(collective_rounds(9), 4u);
}

TEST(ThreadTeam, EmptyPayloadAndRepeatedRuns) {
  ThreadTeam team(4);
  for (int round = 0; round < 3; ++round) {
    const auto stats = team.run([](ThreadComm& comm) {
      std::vector<double> empty;
      comm.allreduce_sum(empty);
    });
    // Counters reset between runs; an empty collective still counts.
    for (const CommStats& s : stats) {
      EXPECT_EQ(s.collectives, 1u);
      EXPECT_EQ(s.words, 0u);
    }
  }
}

TEST(ThreadTeam, ManyRanksFewCoresStillCorrect) {
  // Heavy oversubscription: 16 ranks on whatever cores exist.
  std::vector<double> got(16, 0.0);
  run_distributed(16, [&](Communicator& comm) {
    for (int round = 0; round < 50; ++round) {
      double v = 1.0;
      v = comm.allreduce_sum_scalar(v);
      EXPECT_EQ(v, 16.0);
    }
    got[comm.rank()] = 1.0;
  });
  for (double v : got) EXPECT_EQ(v, 1.0);
}

TEST(ThreadTeam, ExceptionOnOneRankPropagatesWithoutHanging) {
  ThreadTeam team(4);
  EXPECT_THROW(team.run([](ThreadComm& comm) {
                 std::vector<double> buf(8, 1.0);
                 comm.allreduce_sum(buf);  // synchronise everyone first
                 if (comm.rank() == 2)
                   throw std::runtime_error("rank 2 failed");
                 comm.allreduce_sum(buf);  // others park at a barrier
               }),
               std::runtime_error);
  // The team must stay usable after an aborted run.
  const auto stats = team.run([](ThreadComm& comm) {
    std::vector<double> buf(3, 1.0);
    comm.allreduce_sum(buf);
    EXPECT_EQ(buf[0], 4.0);
  });
  EXPECT_EQ(stats.size(), 4u);
}

TEST(ThreadTeam, AbortWakesRanksParkedInTheCollective) {
  // Rank 0 throws only after its siblings have waited far past the spin
  // budget, so they are parked in atomic::wait: the abort must wake them.
  ThreadTeam team(4);
  EXPECT_THROW(team.run([](ThreadComm& comm) {
                 std::vector<double> buf(8, 1.0);
                 if (comm.rank() == 0) {
                   std::this_thread::sleep_for(std::chrono::milliseconds(50));
                   throw std::runtime_error("rank 0 failed");
                 }
                 comm.allreduce_sum(buf);
               }),
               std::runtime_error);
  const auto stats = team.run([](ThreadComm& comm) {
    std::vector<double> buf(3, 1.0);
    comm.allreduce_sum(buf);
    EXPECT_EQ(buf[2], 4.0);
  });
  EXPECT_EQ(stats.size(), 4u);
}

TEST(ThreadTeam, MismatchedLengthsThrowInsteadOfCorrupting) {
  ThreadTeam team(2);
  EXPECT_THROW(team.run([](ThreadComm& comm) {
                 std::vector<double> buf(comm.rank() == 0 ? 4 : 5, 1.0);
                 comm.allreduce_sum(buf);
               }),
               sa::PreconditionError);
}

TEST(ThreadTeam, RejectsZeroRanks) {
  EXPECT_THROW(ThreadTeam{0}, sa::PreconditionError);
}

class TreeAllreduceSweep : public ::testing::TestWithParam<int> {};

TEST_P(TreeAllreduceSweep, TreeIsDeterministicAcrossRunsAndRanks) {
  const int p = GetParam();
  const std::size_t n = 257;

  auto reduce = [&] {
    ThreadTeam team(p);
    std::vector<std::vector<double>> got(p);
    team.run([&](ThreadComm& comm) {
      std::vector<double> mine = rank_contribution(comm.rank(), n);
      comm.allreduce_sum(mine);
      got[comm.rank()] = std::move(mine);
    });
    return got;
  };

  const auto tree_a = reduce();
  const auto tree_b = reduce();
  const std::vector<double> want = binomial_reference(p, n);

  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(tree_a[r].size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      // Bit-deterministic across runs and identical on every rank.
      EXPECT_EQ(tree_a[r][i], tree_b[r][i]);
      EXPECT_EQ(tree_a[r][i], tree_a[0][i]);
      // And it is exactly the binomial pairing.
      EXPECT_EQ(tree_a[r][i], want[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, TreeAllreduceSweep,
                         ::testing::Values(2, 3, 4, 8));

class SliceBoundarySweep : public ::testing::TestWithParam<int> {};

TEST_P(SliceBoundarySweep, EverySliceAndBlockEdgeMatchesBinomialPairing) {
  // Each rank folds elements [n·r/P, n·(r+1)/P) in blocks of
  // kAllreduceFoldBlock; lengths around P and around the block size put
  // empty slices, one-element slices and partial blocks at every edge.
  // One team runs every length back to back, so the grow-only result
  // buffer is also reused at shorter lengths.
  const int p = GetParam();
  const std::size_t ps = static_cast<std::size_t>(p);
  const std::size_t block = kAllreduceFoldBlock;
  const std::vector<std::size_t> lengths = {
      0,         1,         ps - 1,         ps,    ps + 1, block - 1,
      block,     block + 1, ps * block - 1, 4097,  1,      ps * block + 1};
  ThreadTeam team(p);
  std::vector<std::vector<std::vector<double>>> got(
      lengths.size(), std::vector<std::vector<double>>(ps));
  team.run([&](ThreadComm& comm) {
    for (std::size_t k = 0; k < lengths.size(); ++k) {
      std::vector<double> mine = rank_contribution(comm.rank(), lengths[k]);
      comm.allreduce_sum(mine);
      got[k][static_cast<std::size_t>(comm.rank())] = std::move(mine);
    }
  });
  for (std::size_t k = 0; k < lengths.size(); ++k) {
    const std::size_t n = lengths[k];
    const std::vector<double> want = binomial_reference(p, n);
    for (std::size_t r = 0; r < ps; ++r) {
      ASSERT_EQ(got[k][r].size(), n);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(got[k][r][i], want[i])
            << "p=" << p << " n=" << n << " rank " << r << " elt " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, SliceBoundarySweep,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 16));

#if defined(__SANITIZE_THREAD__)
constexpr bool kThreadSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kThreadSanitizer = true;
#else
constexpr bool kThreadSanitizer = false;
#endif
#else
constexpr bool kThreadSanitizer = false;
#endif

TEST(TreeAllreduce, BackToBackCollectivesSpinAndParkBitExactly) {
  // Thousands of collectives of varying length through one team.  Every
  // 16th round one rank sleeps far past the barrier's spin budget before
  // arriving, so its siblings park in atomic::wait; on the other rounds
  // they are released while still spinning.  Under TSan the count is cut
  // so the instrumented run stays short.
  const int p = 4;
  const int rounds = kThreadSanitizer ? 400 : 2400;
  auto length = [](int round) {
    return static_cast<std::size_t>((round * 37) % 301);
  };
  std::vector<std::vector<double>> want(301);
  for (std::size_t n = 0; n < want.size(); ++n)
    want[n] = binomial_reference(p, n);

  ThreadTeam team(p);
  std::vector<int> mismatches(p, 0);
  team.run([&](ThreadComm& comm) {
    const std::size_t n_max = want.size() - 1;
    const std::vector<double> contribution =
        rank_contribution(comm.rank(), n_max);
    std::vector<double> buf;
    buf.reserve(n_max);
    for (int round = 0; round < rounds; ++round) {
      const std::size_t n = length(round);
      buf.assign(contribution.begin(),
                 contribution.begin() + static_cast<std::ptrdiff_t>(n));
      if (round % 16 == 0 && comm.rank() == (round / 16) % p)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      comm.allreduce_sum(buf);
      if (!std::equal(buf.begin(), buf.end(), want[n].begin()))
        ++mismatches[comm.rank()];
    }
  });
  for (int r = 0; r < p; ++r) EXPECT_EQ(mismatches[r], 0) << "rank " << r;
}

TEST(TreeAllreduce, SixteenRanksSumExactlyOnRepeatedCollectives) {
  // Exact-in-any-order payload sums come out right through a four-level
  // tree, on repeated collectives.
  ThreadTeam team(16);
  team.run([](ThreadComm& comm) {
    for (int round = 0; round < 5; ++round) {
      std::vector<double> buf(33, static_cast<double>(comm.rank() + 1));
      comm.allreduce_sum(buf);
      for (const double v : buf) EXPECT_EQ(v, 136.0);  // Σ 1..16
    }
  });
}

TEST(TreeAllreduce, MismatchedLengthsThrowInsteadOfCorrupting) {
  ThreadTeam team(4);
  EXPECT_THROW(team.run([](ThreadComm& comm) {
                 std::vector<double> buf(comm.rank() == 0 ? 4 : 5, 1.0);
                 comm.allreduce_sum(buf);
               }),
               sa::PreconditionError);
}

TEST(TreeAllreduce, FailedCollectiveLeavesTheCommunicatorUsable) {
  // A backend throw (mismatched lengths) must not wedge the communicator:
  // every rank catches it, and the same communicator then sums a
  // well-formed buffer correctly.
  ThreadTeam team(2);
  team.run([](ThreadComm& comm) {
    std::vector<double> bad(comm.rank() == 0 ? 4 : 5, 1.0);
    EXPECT_THROW(comm.allreduce_sum(bad), sa::PreconditionError);
    std::vector<double> good(3, 1.0);
    comm.allreduce_sum(good);
    EXPECT_EQ(good[0], 2.0);
  });
}

// ---------------------------------------------------------------------
// broadcast_bytes: the header and payload digests are checked on every
// rank, so a damaged transfer is rejected, never trusted
// ---------------------------------------------------------------------

/// Decorator damaging the reduced data of the `target`-th collective it
/// forwards (1-based), identically on every rank: `zero` clears the whole
/// buffer, otherwise word 0 is bumped by one.  Inside broadcast_bytes,
/// collective 1 is the length header and collective 2 the first payload
/// chunk.
class TamperComm final : public Communicator {
 public:
  TamperComm(Communicator& inner, int target, bool zero)
      : inner_(inner), target_(target), zero_(zero) {}
  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }

 protected:
  void do_allreduce_sum(std::span<double> data) override {
    inner_.allreduce_sum(data);
    if (++calls_ != target_ || data.empty()) return;
    if (zero_)
      std::fill(data.begin(), data.end(), 0.0);
    else
      data[0] += 1.0;
  }

 private:
  Communicator& inner_;
  int target_;
  bool zero_;
  int calls_ = 0;
};

/// Broadcasts `bytes` from rank 0 through a TamperComm on `ranks` ranks;
/// returns, per rank, whether broadcast_bytes threw a CommFailure whose
/// message contains `expected`.  Every rank then runs a second, clean
/// broadcast through the same communicator, which must deliver.
std::vector<int> tampered_broadcast(int ranks, int target, bool zero,
                                    const std::vector<std::uint8_t>& bytes,
                                    const std::string& expected) {
  std::vector<int> caught(static_cast<std::size_t>(ranks), 0);
  run_distributed(ranks, [&](Communicator& comm) {
    TamperComm tamper(comm, target, zero);
    std::vector<std::uint8_t> received;
    if (tamper.rank() == 0) received = bytes;
    try {
      tamper.broadcast_bytes(received, 0);
    } catch (const CommFailure& failure) {
      // Every rank adopts the same reduced words, so every rank fails the
      // same check and the team stays barrier-aligned.
      if (std::string(failure.what()).find(expected) != std::string::npos)
        caught[static_cast<std::size_t>(tamper.rank())] = 1;
    }
    std::vector<std::uint8_t> again;
    if (tamper.rank() == 0) again = {1, 2, 3};
    tamper.broadcast_bytes(again, 0);
    EXPECT_EQ(again, (std::vector<std::uint8_t>{1, 2, 3}));
  });
  return caught;
}

TEST(BroadcastBytes, TamperedLengthHeaderIsRejectedNotTrusted) {
  for (int c : tampered_broadcast(2, 1, false, {9, 8, 7, 6}, "length"))
    EXPECT_EQ(c, 1);
}

TEST(BroadcastBytes, ZeroedPayloadChunkFailsChecksumOnEveryRank) {
  std::vector<std::uint8_t> bytes(257);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(i * 7 + 1);
  for (int c : tampered_broadcast(4, 2, true, bytes, "checksum"))
    EXPECT_EQ(c, 1);
}

// ---------------------------------------------------------------------
// RoundMessage: schema layout, single collective, per-section accounting
// ---------------------------------------------------------------------

TEST(RoundMessage, LayoutIsContiguousInSchemaOrder) {
  la::Workspace ws;
  RoundMessage msg(ws);
  msg.set_trailer_sizes(1, 1);
  const std::span<double> body = msg.layout(6, 3, 3);
  EXPECT_EQ(body.size(), 12u);
  EXPECT_EQ(msg.total_words(), 14u);
  EXPECT_EQ(msg.words(RoundSection::kGram), 6u);
  EXPECT_EQ(msg.words(RoundSection::kObjective), 1u);
  // Sections tile the buffer in schema order with no gaps.
  EXPECT_EQ(msg.section(RoundSection::kGram).data(), msg.packed().data());
  EXPECT_EQ(msg.section(RoundSection::kDots1).data(),
            msg.packed().data() + 6);
  EXPECT_EQ(msg.section(RoundSection::kDots2).data(),
            msg.packed().data() + 9);
  EXPECT_EQ(msg.section(RoundSection::kObjective).data(),
            msg.packed().data() + 12);
  EXPECT_EQ(msg.section(RoundSection::kStopFlags).data(),
            msg.packed().data() + 13);
  // Trailer starts zeroed; the body is the kernel's to overwrite.
  EXPECT_EQ(msg.section(RoundSection::kObjective)[0], 0.0);
  EXPECT_EQ(msg.section(RoundSection::kStopFlags)[0], 0.0);
}

TEST(RoundMessage, ReducesAllSectionsInOneCollectiveWithSectionStats) {
  const int p = 4;
  const std::size_t rounds = collective_rounds(p);
  const auto stats = run_distributed(p, [&](Communicator& comm) {
    la::Workspace ws;
    RoundMessage msg(ws);
    msg.set_trailer_sizes(1, 1);
    msg.layout(3, 2, 0);
    for (std::size_t i = 0; i < 5; ++i)
      msg.packed()[i] = static_cast<double>(comm.rank() + 1);
    msg.section(RoundSection::kObjective)[0] = 10.0;
    msg.section(RoundSection::kStopFlags)[0] =
        comm.rank() == 0 ? 7.0 : 0.0;  // rank 0's clock pattern
    msg.reduce(comm);
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_EQ(msg.packed()[i], 10.0);  // Σ 1..4
    EXPECT_EQ(msg.section(RoundSection::kObjective)[0], 40.0);
    EXPECT_EQ(msg.section(RoundSection::kStopFlags)[0], 7.0);
  });
  for (const CommStats& s : stats) {
    EXPECT_EQ(s.collectives, 1u);  // ONE collective for the whole schema
    EXPECT_EQ(s.messages, rounds);
    EXPECT_EQ(s.words, 7 * rounds);
    EXPECT_EQ(s.section(RoundSection::kGram).collectives, 1u);
    EXPECT_EQ(s.section(RoundSection::kGram).words, 3 * rounds);
    EXPECT_EQ(s.section(RoundSection::kDots1).words, 2 * rounds);
    EXPECT_EQ(s.section(RoundSection::kDots2).collectives, 0u);
    EXPECT_EQ(s.section(RoundSection::kObjective).words, rounds);
    EXPECT_EQ(s.section(RoundSection::kStopFlags).words, rounds);
    EXPECT_EQ(s.section(RoundSection::kStopFlags).bytes(), 8 * rounds);
  }
}

TEST(CostModel, PricesCountersLinearly) {
  CommStats s;
  s.flops = 50;
  s.replicated_flops = 50;  // replicated work sits on the critical path too
  s.words = 1000;
  s.messages = 10;
  const MachineParams m{"unit", 1.0, 2.0, 3.0};
  const CostBreakdown b = price(s, m);
  EXPECT_DOUBLE_EQ(b.compute_seconds, 300.0);
  EXPECT_DOUBLE_EQ(b.bandwidth_seconds, 2000.0);
  EXPECT_DOUBLE_EQ(b.latency_seconds, 10.0);
  EXPECT_DOUBLE_EQ(b.communication_seconds(), 2010.0);
  EXPECT_DOUBLE_EQ(b.total_seconds(), 2310.0);
}

TEST(CostModel, PricesRoundSectionsFromTheirWordCounters) {
  CommStats s;
  s.words = 100;
  s.sections[static_cast<std::size_t>(RoundSection::kGram)].words = 90;
  s.sections[static_cast<std::size_t>(RoundSection::kStopFlags)].words = 10;
  const MachineParams m{"unit", 1.0, 2.0, 3.0};
  const CostBreakdown b = price(s, m);
  EXPECT_DOUBLE_EQ(b.section_seconds(RoundSection::kGram), 180.0);
  EXPECT_DOUBLE_EQ(b.section_seconds(RoundSection::kStopFlags), 20.0);
  EXPECT_DOUBLE_EQ(b.section_seconds(RoundSection::kDots1), 0.0);
  // Sections split only the β term; α is paid once by the single message.
  EXPECT_DOUBLE_EQ(b.section_seconds(RoundSection::kGram) +
                       b.section_seconds(RoundSection::kStopFlags),
                   b.bandwidth_seconds);
}

TEST(CostModel, PresetLatencyLadder) {
  // The three presets must order by latency: shared memory < HPC < cloud.
  const double sm = MachineParams::shared_memory().alpha;
  const double cray = MachineParams::cray_xc30().alpha;
  const double eth = MachineParams::ethernet_cluster().alpha;
  EXPECT_LT(sm, cray);
  EXPECT_LT(cray, eth);
}

}  // namespace
}  // namespace sa::dist
