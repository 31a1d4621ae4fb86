// Non-owning view over a batch of sampled vectors + the Gram / dot kernels.
//
// Instead of gathering the s·µ sampled columns into freshly allocated
// storage every outer iteration, a view describes the members in place —
// sparse members as (indices, values) span pairs aliasing the
// already-materialised CSC/CSR arrays, dense members as row pointers
// (into a block's persistent staged copy).  The descriptor arrays
// themselves live in a la::Workspace, so building a view performs no heap
// allocation in steady state.
//
// A round's allreduce buffer is laid out as
//
//   [ upper(G) | Yᵀx₀ | Yᵀx₁ | … ]
//
// (row-major upper triangle, then one length-k section per right-hand
// side).  sampled_gram_range() writes the Gram section and
// sampled_dots_range() the dot sections, each restricted to one
// coordinate range of the shared dimension; [0, dim()) is the full-range
// case.  These two functions are the only Gram and dot entry points, so
// every caller runs the same code in the same accumulation order.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "la/workspace.hpp"

namespace sa::la {

/// Non-owning batch of k vectors, each of logical length dim().
class BatchView {
 public:
  BatchView() = default;

  /// Dense members: rows[i] points at a contiguous length-dim vector.
  static BatchView dense(std::span<const double* const> rows,
                         std::size_t dim);

  /// Sparse members: (indices[i], values[i]) describe member i; indices
  /// are strictly increasing positions in [0, dim).
  static BatchView sparse(std::span<const std::span<const std::size_t>> indices,
                          std::span<const std::span<const double>> values,
                          std::size_t dim);

  std::size_t size() const {
    return is_dense() ? rows_.size() : idx_.size();
  }
  std::size_t dim() const { return dim_; }
  bool is_dense() const { return storage_ == Storage::kDense; }

  /// Total nonzeros across the batch (k·dim for dense views).
  std::size_t nnz() const;

  /// Member i as a contiguous span (requires is_dense()).
  std::span<const double> dense_row(std::size_t i) const {
    return std::span<const double>(rows_[i], dim_);
  }
  /// All dense member row pointers (requires is_dense()).
  std::span<const double* const> row_pointers() const { return rows_; }
  std::span<const std::size_t> member_indices(std::size_t i) const {
    return idx_[i];
  }
  std::span<const double> member_values(std::size_t i) const {
    return val_[i];
  }

  /// Nonzeros of member i (dim() for dense views).  O(1).
  std::size_t member_nnz(std::size_t i) const {
    return is_dense() ? dim_ : idx_[i].size();
  }

  /// target := target + alpha · v_i  (same accumulation order as the
  /// dense axpy and sparse scatter kernels — bit-identical updates).
  void add_scaled_to(std::size_t i, double alpha,
                     std::span<double> target) const;

  /// Flops of the packed Gram kernel on this view (dense k(k+1)·dim,
  /// sparse Σ_j 2(j+1)·nnz_j).
  std::size_t gram_flops() const;

  /// Flops of one dot section (2·nnz).
  std::size_t dot_all_flops() const;

 private:
  enum class Storage { kDense, kSparse };
  Storage storage_ = Storage::kDense;

  std::span<const double* const> rows_;                    // dense members
  std::span<const std::span<const std::size_t>> idx_;      // sparse members
  std::span<const std::span<const double>> val_;
  std::size_t dim_ = 0;
};

/// Index of entry (i, j), j ≥ i, in the row-major packed upper triangle
/// of a k×k symmetric matrix — the wire format the Gram kernel writes
/// and the solvers read back (row i starts at i·k − i(i−1)/2).  The one
/// definition of the packed layout; keep every reader on it.
inline std::size_t packed_upper_index(std::size_t i, std::size_t j,
                                      std::size_t k) {
  return i * k - i * (i + 1) / 2 + j;
}

/// Size of the round buffer for k members and `sections` right-hand
/// sides: k(k+1)/2 packed Gram entries plus sections·k dot entries.
std::size_t fused_buffer_size(std::size_t k, std::size_t sections);

// Range-restricted entry points, one per buffer section.  The fixed
// reduction grouping (common/grouping.hpp) calls them once per global
// chunk [begin, end) of the shared dimension.  The restricted view's
// descriptor arrays are built in `scratch` — a Workspace DISTINCT from the
// one that built `y`, because the named descriptor pools hand out one
// buffer per Workspace — so steady-state calls allocate nothing.  Bit
// contract: a chunk partial depends only on the member values inside
// [begin, end), their order, and the kernels in this translation unit, so
// any two ranks (or rank counts) that own the same global chunk produce
// identical bits.  Every output entry is produced by exactly one thread
// in a fixed accumulation order.

/// Packed upper-triangular Gram of the view restricted to [begin, end):
/// out must have k(k+1)/2 entries (== fused_buffer_size(size(), 0)).
void sampled_gram_range(const BatchView& y, std::size_t begin,
                        std::size_t end, Workspace& scratch,
                        std::span<double> out);

/// Dot sections of the view restricted to [begin, end):
/// out = [Yᵀxs[0] | Yᵀxs[1] | …], one length-k section per right-hand
/// side (out.size() == xs.size() · size()).  For dense views the
/// right-hand sides are narrowed to the same range; for sparse views the
/// members keep their absolute indices (which gather through the FULL
/// right-hand sides), so pass xs whole either way.
void sampled_dots_range(const BatchView& y,
                        std::span<const std::span<const double>> xs,
                        std::size_t begin, std::size_t end,
                        Workspace& scratch, std::span<double> out);

}  // namespace sa::la
