// Fixed global reduction grouping — the schema that makes cross-rank sums
// rank-count invariant.
//
// Floating-point addition does not associate, so a reduction whose partial
// sums follow the rank partition produces different bits at different rank
// counts.  ReduceGrouping replaces the per-rank partial with a fixed grid
// of G global chunks over the reduction axis (rows for the Lasso families,
// features for SVM) and ONE fixed balanced pairwise tree over that grid:
// node (d, r) covers chunks [⌊r·G/2^d⌋, ⌊(r+1)·G/2^d⌋), so the nodes nest
// at every G (node (d, r) is the union of (d+1, 2r) and (d+1, 2r+1)).  A
// sum is the value of the root, where
//
//   value(node) = +0.0                          (empty node)
//               = chunk partial + 0.0           (one chunk — a leaf)
//               = value(left) + value(right)    (two or more chunks)
//
// fold_node() is the one routine that evaluates it.  Adding +0.0 to every
// leaf canonicalises a -0.0 partial, so an empty node's +0.0 is an exact
// identity wherever it joins a sum.  fold_node adds it once, to its
// output: a raw sum is -0.0 only when every summand is, so that one pass
// yields the same bits as canonicalising every leaf.  The tree depends
// only on G — never on how chunks were distributed — and that gives two
// ways to evaluate it with identical bits:
//
//   * payload wire (the fast path): when P is a power of two and every
//     rank block is exactly tree node (log₂P, rank) — what
//     tree_partition() builds — each rank folds its own subtree locally
//     and sends ONE payload; a binomial-tree allreduce (dist::ThreadComm)
//     then combines the upper log₂P levels in exactly the tree's pairing;
//   * slotted wire (the fallback, every other partition): each rank sends
//     one leaf slot per chunk (foreign slots +0.0, so the allreduce adds
//     exact zeros) and every rank folds the reduced leaves from the root.
//
// Serial and P-rank sums are therefore bitwise identical whenever the rank
// partition is chunk-aligned.  Pairwise summation also bounds the rounding
// error by O(log G) rather than the O(G) of a left-to-right fold.
//
// The grid and its fold order are part of the reproducibility contract:
// io::snapshot records kReduceGroupingVersion and the chunk size, and
// SnapshotReader rejects a mismatched grid descriptively rather than
// resuming into different bits.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sa::common {

/// Version of the grouping schema recorded in snapshots.  Bump when the
/// chunk-grid policy or the fold order changes incompatibly (v1 folded
/// the chunks left-to-right; v2 folds them as one pairwise tree).
inline constexpr std::uint64_t kReduceGroupingVersion = 2;

/// Target chunk count for the automatic policy: enough chunks that block
/// partitions up to ~64 ranks stay chunk-aligned, few enough that the
/// slotted fallback wire stays a small multiple of the payload.
inline constexpr std::size_t kReduceGroupingTargetChunks = 64;

/// The fixed global chunk grid: `extent` elements split into chunks of
/// `chunk` elements each (the last chunk may be short), plus the pairwise
/// fold tree over those chunks.
struct ReduceGrouping {
  std::size_t extent = 0;  ///< global size of the reduction axis
  std::size_t chunk = 1;   ///< elements per chunk

  /// Builds the grid for `extent` elements.  A non-zero `chunk_override`
  /// (SolverSpec::reduction_chunk) pins the chunk size; otherwise the
  /// automatic policy targets kReduceGroupingTargetChunks chunks.
  static ReduceGrouping make(std::size_t extent,
                             std::size_t chunk_override = 0) {
    ReduceGrouping g;
    g.extent = extent;
    if (chunk_override != 0) {
      g.chunk = chunk_override;
    } else {
      const std::size_t target =
          std::max<std::size_t>(1, std::min(extent, kReduceGroupingTargetChunks));
      g.chunk = (extent + target - 1) / target;  // 0 extent → chunk 1
      if (g.chunk == 0) g.chunk = 1;
    }
    return g;
  }

  /// ⌈extent / chunk⌉ without the overflow of (extent + chunk − 1) —
  /// a chunk of SIZE_MAX is one chunk, not zero.
  std::size_t num_chunks() const {
    if (extent == 0) return 1;
    return extent / chunk + (extent % chunk != 0 ? 1 : 0);
  }
  std::size_t begin(std::size_t c) const {
    return c < num_chunks() ? c * chunk : extent;
  }
  std::size_t end(std::size_t c) const { return begin(c + 1); }

  /// ⌈log₂G⌉: every node at this depth holds at most one chunk.
  std::size_t tree_depth() const {
    std::size_t d = 0;
    while ((std::size_t{1} << d) < num_chunks()) ++d;
    return d;
  }

  /// First chunk of tree node (depth, r); node (depth, r) ends where node
  /// (depth, r + 1) begins.
  std::size_t node_first(std::size_t depth, std::size_t r) const {
    return (r * num_chunks()) >> depth;
  }

  /// Scratch levels fold_node(depth, …) needs beyond its output.
  std::size_t fold_levels(std::size_t depth) const {
    const std::size_t d = tree_depth();
    return d > depth ? d - depth : 0;
  }

  /// log₂P for a power-of-two rank count, or -1 otherwise.
  static int rank_depth(std::size_t ranks) {
    if (ranks == 0 || (ranks & (ranks - 1)) != 0) return -1;
    int d = 0;
    while ((std::size_t{1} << d) < ranks) ++d;
    return d;
  }

  /// Element boundaries of the depth-log₂P tree nodes: the partition of
  /// [0, extent) over `ranks` (a power of two) on which the payload wire
  /// applies.  Blocks may be empty when G < P.
  std::vector<std::size_t> tree_partition(std::size_t ranks) const {
    const int depth = rank_depth(ranks);
    std::vector<std::size_t> offsets(ranks + 1, 0);
    for (std::size_t q = 0; q <= ranks; ++q)
      offsets[q] = begin(node_first(static_cast<std::size_t>(depth), q));
    return offsets;
  }

  /// True when the rank blocks `offsets` (P + 1 element boundaries) are
  /// exactly the tree nodes (log₂P, 0 … P−1) — the payload-wire test every
  /// rank evaluates on the replicated partition.
  bool is_tree_partition(std::span<const std::size_t> offsets) const {
    if (offsets.size() < 2 || rank_depth(offsets.size() - 1) < 0)
      return false;
    const std::vector<std::size_t> tree = tree_partition(offsets.size() - 1);
    return std::equal(tree.begin(), tree.end(), offsets.begin());
  }

  /// THE fold: writes the value of tree node (depth, r) into `out`.
  /// `leaf(c, out)` overwrites `out` with chunk c's partial; `scratch`
  /// holds fold_levels(depth) further levels of out.size() words (the
  /// right operand at each level of the descent).
  template <typename Leaf>
  void fold_node(std::size_t depth, std::size_t r, std::span<double> out,
                 std::span<double> scratch, Leaf&& leaf) const {
    fold_raw(depth, r, out, scratch, leaf);
    for (double& v : out) v += 0.0;  // -0.0 → +0.0
  }

 private:
  template <typename Leaf>
  void fold_raw(std::size_t depth, std::size_t r, std::span<double> out,
                std::span<double> scratch, Leaf& leaf) const {
    const std::size_t lo = node_first(depth, r);
    const std::size_t hi = node_first(depth, r + 1);
    if (hi == lo) {
      std::fill(out.begin(), out.end(), 0.0);
      return;
    }
    if (hi - lo == 1) {
      leaf(lo, out);
      return;
    }
    fold_raw(depth + 1, 2 * r, out, scratch, leaf);
    const std::span<double> right = scratch.first(out.size());
    fold_raw(depth + 1, 2 * r + 1, right, scratch.subspan(out.size()), leaf);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += right[i];
  }
};

}  // namespace sa::common
