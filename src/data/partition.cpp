#include "data/partition.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace sa::data {

Partition Partition::block(std::size_t n, int num_ranks) {
  SA_CHECK(num_ranks >= 1, "Partition::block: need at least one rank");
  std::vector<std::size_t> offsets(num_ranks + 1, 0);
  const std::size_t base = n / num_ranks;
  const std::size_t extra = n % num_ranks;
  for (int r = 0; r < num_ranks; ++r) {
    offsets[r + 1] =
        offsets[r] + base + (static_cast<std::size_t>(r) < extra ? 1 : 0);
  }
  return Partition(std::move(offsets));
}

Partition Partition::block_aligned(std::size_t n, int num_ranks,
                                   std::size_t alignment) {
  SA_CHECK(num_ranks >= 1, "Partition::block_aligned: need at least one rank");
  SA_CHECK(alignment >= 1, "Partition::block_aligned: alignment must be >= 1");
  if (alignment == 1) return block(n, num_ranks);
  // Block-partition the chunk grid, then scale the boundaries back to
  // element space; the grid's end maps to n (the last chunk may be
  // short).  Overflow-free for any alignment, SIZE_MAX included.
  const std::size_t chunks = n / alignment + (n % alignment != 0 ? 1 : 0);
  const Partition grid = block(chunks, num_ranks);
  std::vector<std::size_t> offsets(num_ranks + 1, 0);
  for (int r = 0; r <= num_ranks; ++r) {
    const std::size_t c = grid.offsets()[r];
    offsets[r] = c == chunks ? n : c * alignment;
  }
  return Partition(std::move(offsets));
}

Partition::Partition(std::vector<std::size_t> offsets)
    : offsets_(std::move(offsets)) {
  SA_CHECK(offsets_.size() >= 2, "Partition: need at least one block");
  SA_CHECK(offsets_.front() == 0, "Partition: offsets must start at 0");
  for (std::size_t i = 1; i < offsets_.size(); ++i)
    SA_CHECK(offsets_[i - 1] <= offsets_[i],
             "Partition: offsets must be non-decreasing");
}

int Partition::owner(std::size_t i) const {
  SA_CHECK(i < total(), "Partition::owner: index out of range");
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), i);
  return static_cast<int>(it - offsets_.begin()) - 1;
}

namespace {

LoadBalance balance_from_counts(const std::vector<std::size_t>& counts) {
  LoadBalance lb;
  if (counts.empty()) return lb;
  lb.min_nnz = *std::min_element(counts.begin(), counts.end());
  lb.max_nnz = *std::max_element(counts.begin(), counts.end());
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  lb.mean_nnz = static_cast<double>(total) / static_cast<double>(counts.size());
  lb.imbalance = lb.mean_nnz > 0.0
                     ? static_cast<double>(lb.max_nnz) / lb.mean_nnz
                     : 1.0;
  return lb;
}

}  // namespace

LoadBalance row_partition_balance(const la::CsrMatrix& a,
                                  const Partition& rows) {
  SA_CHECK(rows.total() == a.rows(), "row_partition_balance: size mismatch");
  std::vector<std::size_t> counts(rows.num_ranks(), 0);
  for (int r = 0; r < rows.num_ranks(); ++r) {
    for (std::size_t i = rows.begin(r); i < rows.end(r); ++i)
      counts[r] += a.row_nnz(i);
  }
  return balance_from_counts(counts);
}

LoadBalance col_partition_balance(const la::CsrMatrix& a,
                                  const Partition& cols) {
  SA_CHECK(cols.total() == a.cols(), "col_partition_balance: size mismatch");
  std::vector<std::size_t> counts(cols.num_ranks(), 0);
  const auto indices = a.indices();
  for (std::size_t k = 0; k < indices.size(); ++k)
    counts[cols.owner(indices[k])] += 1;
  return balance_from_counts(counts);
}

}  // namespace sa::data
