// Tests for 1D block partitioning and load-balance diagnostics.
#include "data/partition.hpp"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace sa::data {
namespace {

TEST(Partition, BlockSplitsEvenly) {
  const Partition p = Partition::block(12, 4);
  EXPECT_EQ(p.num_ranks(), 4);
  EXPECT_EQ(p.total(), 12u);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(p.count(r), 3u);
}

TEST(Partition, BlockDistributesRemainderToLeadingRanks) {
  const Partition p = Partition::block(10, 4);
  EXPECT_EQ(p.count(0), 3u);
  EXPECT_EQ(p.count(1), 3u);
  EXPECT_EQ(p.count(2), 2u);
  EXPECT_EQ(p.count(3), 2u);
  EXPECT_EQ(p.end(3), 10u);
}

TEST(Partition, BlocksAreContiguousAndCovering) {
  const Partition p = Partition::block(17, 5);
  EXPECT_EQ(p.begin(0), 0u);
  for (int r = 1; r < 5; ++r) EXPECT_EQ(p.begin(r), p.end(r - 1));
  EXPECT_EQ(p.end(4), 17u);
}

TEST(Partition, MoreRanksThanItemsGivesEmptyBlocks) {
  const Partition p = Partition::block(2, 5);
  EXPECT_EQ(p.count(0), 1u);
  EXPECT_EQ(p.count(1), 1u);
  for (int r = 2; r < 5; ++r) EXPECT_EQ(p.count(r), 0u);
}

TEST(Partition, BlockAlignedKeepsBoundariesOnTheChunkGrid) {
  // 10 elements in chunks of 3 (4 chunks, the last short) over 2 ranks.
  EXPECT_EQ(Partition::block_aligned(10, 2, 3).offsets(),
            (std::vector<std::size_t>{0, 6, 10}));
  // A chunk at or past the extent is one chunk, owned by rank 0 — the
  // chunk count must not wrap for a SIZE_MAX alignment.
  for (const std::size_t chunk :
       {std::size_t{100}, std::size_t{101},
        std::numeric_limits<std::size_t>::max()}) {
    EXPECT_EQ(Partition::block_aligned(100, 3, chunk).offsets(),
              (std::vector<std::size_t>{0, 100, 100, 100}))
        << "chunk " << chunk;
  }
}

TEST(Partition, OwnerFindsCorrectRank) {
  const Partition p = Partition::block(10, 3);  // 4, 3, 3
  EXPECT_EQ(p.owner(0), 0);
  EXPECT_EQ(p.owner(3), 0);
  EXPECT_EQ(p.owner(4), 1);
  EXPECT_EQ(p.owner(6), 1);
  EXPECT_EQ(p.owner(7), 2);
  EXPECT_EQ(p.owner(9), 2);
}

TEST(Partition, OwnerRejectsOutOfRange) {
  const Partition p = Partition::block(5, 2);
  EXPECT_THROW(p.owner(5), sa::PreconditionError);
}

TEST(Partition, ExplicitOffsetsValidated) {
  EXPECT_NO_THROW(Partition({0, 2, 2, 5}));
  EXPECT_THROW(Partition({1, 2}), sa::PreconditionError);   // must start at 0
  EXPECT_THROW(Partition({0, 3, 2}), sa::PreconditionError);  // decreasing
  EXPECT_THROW(Partition({0}), sa::PreconditionError);        // no blocks
}

TEST(Partition, OwnerSkipsEmptyBlocks) {
  const Partition p({0, 2, 2, 5});
  EXPECT_EQ(p.owner(1), 0);
  EXPECT_EQ(p.owner(2), 2);  // block 1 is empty; index 2 belongs to block 2
}

TEST(Partition, BlockRejectsZeroRanks) {
  EXPECT_THROW(Partition::block(5, 0), sa::PreconditionError);
}

TEST(LoadBalance, UniformMatrixIsBalanced) {
  // 4 rows with 2 nonzeros each over 2 ranks: perfect balance.
  std::vector<la::Triplet> t;
  for (std::size_t i = 0; i < 4; ++i) {
    t.push_back({i, 0, 1.0});
    t.push_back({i, 3, 1.0});
  }
  const la::CsrMatrix a = la::CsrMatrix::from_triplets(4, 4, t);
  const LoadBalance lb = row_partition_balance(a, Partition::block(4, 2));
  EXPECT_EQ(lb.min_nnz, 4u);
  EXPECT_EQ(lb.max_nnz, 4u);
  EXPECT_DOUBLE_EQ(lb.imbalance, 1.0);
}

TEST(LoadBalance, SkewedRowsShowImbalance) {
  // Rank 0 gets a heavy row, rank 1 a light one.
  std::vector<la::Triplet> t;
  for (std::size_t j = 0; j < 9; ++j) t.push_back({0, j, 1.0});
  t.push_back({1, 0, 1.0});
  const la::CsrMatrix a = la::CsrMatrix::from_triplets(2, 9, t);
  const LoadBalance lb = row_partition_balance(a, Partition::block(2, 2));
  EXPECT_EQ(lb.max_nnz, 9u);
  EXPECT_EQ(lb.min_nnz, 1u);
  EXPECT_NEAR(lb.imbalance, 9.0 / 5.0, 1e-12);
}

TEST(LoadBalance, ColumnPartitionCountsByColumn) {
  // All nonzeros in column 0: rank 0 owns everything.
  std::vector<la::Triplet> t;
  for (std::size_t i = 0; i < 5; ++i) t.push_back({i, 0, 1.0});
  const la::CsrMatrix a = la::CsrMatrix::from_triplets(5, 4, t);
  const LoadBalance lb = col_partition_balance(a, Partition::block(4, 2));
  EXPECT_EQ(lb.max_nnz, 5u);
  EXPECT_EQ(lb.min_nnz, 0u);
  EXPECT_NEAR(lb.imbalance, 2.0, 1e-12);
}

TEST(LoadBalance, PartitionSizeMismatchRejected) {
  const la::CsrMatrix a = la::CsrMatrix::from_triplets(3, 3, {{0, 0, 1.0}});
  EXPECT_THROW(row_partition_balance(a, Partition::block(4, 2)),
               sa::PreconditionError);
  EXPECT_THROW(col_partition_balance(a, Partition::block(4, 2)),
               sa::PreconditionError);
}

}  // namespace
}  // namespace sa::data
