// The reduction grouping's pairwise fold tree (common/grouping.hpp) and the
// two RoundMessage wires built on it: every rank's folded sections must be
// bit-identical to the serial fold at every grid size and rank count, and
// the payload wire must engage exactly when the rank blocks are tree nodes.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/grouping.hpp"
#include "data/rng.hpp"
#include "dist/round_message.hpp"
#include "dist/thread_comm.hpp"
#include "la/workspace.hpp"

namespace sa::dist {
namespace {

using common::ReduceGrouping;

constexpr std::size_t kGramWords = 5;
constexpr std::size_t kDotsWords = 3;
constexpr std::size_t kPayloadWords = kGramWords + kDotsWords + 1;

const std::size_t kGridSizes[] = {1, 2, 3, 10, 24, 63, 64};
const int kRankCounts[] = {1, 2, 3, 4, 8};

/// Seeded per-chunk payload partials (chunk-major, kPayloadWords each)
/// mixing magnitudes over many binades — so the summation grouping shows
/// in the bits — with ±0.0 and subnormals.
std::vector<double> chunk_partials(std::size_t chunks, std::uint64_t seed) {
  data::SplitMix64 rng(seed);
  std::vector<double> v(chunks * kPayloadWords);
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (std::size_t i = 0; i < v.size(); ++i) {
    switch (rng.next_below(8)) {
      case 0:
        v[i] = -0.0;
        break;
      case 1:
        v[i] = 0.0;
        break;
      case 2:
        v[i] = (rng.next_below(2) ? 1.0 : -1.0) * tiny *
               static_cast<double>(1 + rng.next_below(1000));
        break;
      default:
        v[i] = std::ldexp(rng.next_normal(),
                          static_cast<int>(rng.next_below(60)) - 30);
    }
  }
  return v;
}

/// Independent statement of the tree: node (d, r) covers chunks
/// [⌊r·G/2^d⌋, ⌊(r+1)·G/2^d⌋); leaves add +0.0, empty nodes are +0.0.
double tree_value(std::size_t g, std::size_t d, std::size_t r,
                  const std::vector<double>& partials, std::size_t word) {
  const std::size_t lo = (r * g) >> d;
  const std::size_t hi = ((r + 1) * g) >> d;
  if (hi == lo) return 0.0;
  if (hi - lo == 1) return partials[lo * kPayloadWords + word] + 0.0;
  return tree_value(g, d + 1, 2 * r, partials, word) +
         tree_value(g, d + 1, 2 * r + 1, partials, word);
}

/// The serial fold of the whole payload through ReduceGrouping::fold_node.
std::vector<double> serial_fold(const ReduceGrouping& grouping,
                                const std::vector<double>& partials) {
  std::vector<double> out(kPayloadWords);
  std::vector<double> scratch(grouping.fold_levels(0) * kPayloadWords);
  grouping.fold_node(0, 0, out, scratch,
                     [&](std::size_t c, std::span<double> leaf) {
                       for (std::size_t i = 0; i < kPayloadWords; ++i)
                         leaf[i] = partials[c * kPayloadWords + i];
                     });
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(ReduceGroupingTree, NodesNestAndLeavesHoldOneChunk) {
  for (const std::size_t g : kGridSizes) {
    const ReduceGrouping grouping = ReduceGrouping::make(g);
    ASSERT_EQ(grouping.num_chunks(), g);
    const std::size_t depth = grouping.tree_depth();
    EXPECT_GE(std::size_t{1} << depth, g);
    for (std::size_t d = 0; d <= depth; ++d) {
      for (std::size_t r = 0; r < (std::size_t{1} << d); ++r) {
        // Node (d, r) is the union of its children (d+1, 2r), (d+1, 2r+1).
        EXPECT_EQ(grouping.node_first(d, r), grouping.node_first(d + 1, 2 * r));
        EXPECT_EQ(grouping.node_first(d, r + 1),
                  grouping.node_first(d + 1, 2 * r + 2));
      }
    }
    for (std::size_t r = 0; r < (std::size_t{1} << depth); ++r)
      EXPECT_LE(grouping.node_first(depth, r + 1) -
                    grouping.node_first(depth, r),
                1u);
    EXPECT_EQ(grouping.node_first(0, 0), 0u);
    EXPECT_EQ(grouping.node_first(0, 1), g);
  }
}

TEST(ReduceGroupingTree, SerialFoldIsThePairwiseTree) {
  for (const std::size_t g : kGridSizes) {
    const ReduceGrouping grouping = ReduceGrouping::make(g);
    const std::vector<double> partials = chunk_partials(g, 100 + g);
    const std::vector<double> folded = serial_fold(grouping, partials);
    for (std::size_t i = 0; i < kPayloadWords; ++i)
      EXPECT_TRUE(same_bits(folded[i], tree_value(g, 0, 0, partials, i)))
          << "G=" << g << " word " << i;
  }
}

TEST(ReduceGroupingTree, NegativeZeroLeavesFoldToPositiveZero) {
  for (const std::size_t g : kGridSizes) {
    const ReduceGrouping grouping = ReduceGrouping::make(g);
    const std::vector<double> partials(g * kPayloadWords, -0.0);
    for (const double v : serial_fold(grouping, partials))
      EXPECT_TRUE(same_bits(v, 0.0)) << "G=" << g;
  }
}

TEST(ReduceGroupingTree, TreePartitionIsRecognisedOnlyAtPowersOfTwo) {
  const ReduceGrouping grouping = ReduceGrouping::make(10);
  for (const std::size_t p : {1u, 2u, 4u, 8u}) {
    const std::vector<std::size_t> offsets = grouping.tree_partition(p);
    ASSERT_EQ(offsets.size(), p + 1);
    EXPECT_EQ(offsets.front(), 0u);
    EXPECT_EQ(offsets.back(), 10u);
    EXPECT_TRUE(grouping.is_tree_partition(offsets)) << "P=" << p;
  }
  // 10 chunks over 4 ranks: the tree splits 2|3|2|3, a balanced block
  // partition 3|3|2|2 — not tree nodes.
  EXPECT_FALSE(grouping.is_tree_partition(
      std::vector<std::size_t>{0, 3, 6, 8, 10}));
  EXPECT_FALSE(
      grouping.is_tree_partition(std::vector<std::size_t>{0, 4, 7, 10}));
  EXPECT_FALSE(grouping.is_tree_partition(std::vector<std::size_t>{0}));
}

/// The partitions a sweep point exercises: the tree partition (power-of-two
/// P), the balanced chunk-aligned one, and a skewed one with empty blocks.
std::vector<std::vector<std::size_t>> partitions_for(std::size_t g, int p) {
  const ReduceGrouping grouping = ReduceGrouping::make(g);
  std::vector<std::vector<std::size_t>> out;
  if (ReduceGrouping::rank_depth(static_cast<std::size_t>(p)) >= 0)
    out.push_back(grouping.tree_partition(static_cast<std::size_t>(p)));
  std::vector<std::size_t> balanced(p + 1);
  for (int q = 0; q <= p; ++q)
    balanced[q] = g * static_cast<std::size_t>(q) / static_cast<std::size_t>(p);
  out.push_back(balanced);
  std::vector<std::size_t> skewed(p + 1, 0);
  skewed[p] = g;
  if (p > 1) skewed[p - 1] = g / 2;  // ranks 0 … P−3 own nothing
  out.push_back(skewed);
  return out;
}

TEST(RoundMessageTree, EveryRankFoldsBitIdenticalToSerialOnBothWires) {
  for (const std::size_t g : kGridSizes) {
    const ReduceGrouping grouping = ReduceGrouping::make(g);
    const std::vector<double> partials = chunk_partials(g, 7 * g + 1);
    const std::vector<double> want = serial_fold(grouping, partials);
    for (const int p : kRankCounts) {
      ThreadTeam team(p);
      for (const std::vector<std::size_t>& offsets : partitions_for(g, p)) {
        const bool tree = grouping.is_tree_partition(offsets);
        std::vector<std::vector<double>> got(p);
        std::vector<int> payload_wire(p, -1);
        const std::vector<CommStats> stats = team.run([&](ThreadComm& comm) {
          la::Workspace ws;
          RoundMessage msg(ws);
          msg.set_trailer_sizes(1, 1);
          msg.set_grouping(grouping, offsets, comm.rank());
          msg.layout(kGramWords, kDotsWords, 0);
          const std::size_t lo = offsets[comm.rank()];
          const auto leaf_from = [&](std::size_t first) {
            return [&, first](std::size_t b, std::size_t e,
                              std::span<double> out) {
              ASSERT_EQ(e, b + 1);  // chunk size 1: one chunk per leaf
              for (std::size_t i = 0; i < out.size(); ++i)
                out[i] = partials[(lo + b) * kPayloadWords + first + i];
            };
          };
          msg.fold_owned(RoundSection::kGram, RoundSection::kGram,
                         leaf_from(0));
          msg.fold_owned(RoundSection::kDots1, RoundSection::kDots2,
                         leaf_from(kGramWords));
          msg.fold_owned(RoundSection::kObjective, RoundSection::kObjective,
                         leaf_from(kGramWords + kDotsWords));
          msg.section(RoundSection::kStopFlags)[0] =
              comm.rank() == 0 ? 7.0 : 0.0;
          msg.reduce(comm);
          std::vector<double> mine(msg.packed().begin(),
                                   msg.packed().begin() + kPayloadWords);
          mine.push_back(msg.section(RoundSection::kStopFlags)[0]);
          got[comm.rank()] = std::move(mine);
          payload_wire[comm.rank()] = msg.payload_wire() ? 1 : 0;
        });
        for (int r = 0; r < p; ++r) {
          SCOPED_TRACE(::testing::Message()
                       << "G=" << g << " P=" << p << " rank " << r
                       << (tree ? " (tree partition)" : " (slotted)"));
          EXPECT_EQ(payload_wire[r], tree ? 1 : 0);
          for (std::size_t i = 0; i < kPayloadWords; ++i)
            EXPECT_TRUE(same_bits(got[r][i], want[i]))
                << "word " << i << ": " << got[r][i] << " vs " << want[i];
          EXPECT_EQ(got[r][kPayloadWords], 7.0);
          // One payload (+ the flag word) per hop on the payload wire; G
          // leaf slots of it on the slotted wire.
          const std::size_t wire =
              (tree ? kPayloadWords : g * kPayloadWords) + 1;
          EXPECT_EQ(stats[r].words, wire * collective_rounds(p));
          EXPECT_EQ(stats[r].collectives, 1u);
        }
      }
    }
  }
}

TEST(RoundMessageTree, PayloadWireIsTheDefaultWithoutAGrouping) {
  la::Workspace ws;
  RoundMessage msg(ws);
  EXPECT_TRUE(msg.payload_wire());
  msg.layout(3, 2, 0);
  EXPECT_EQ(msg.total_words(), 5u);
}

}  // namespace
}  // namespace sa::dist
