// Per-rank views of a partitioned dataset.
//
// RowBlock is the Lasso layout (Figure 1 of the paper): A is 1D-row
// partitioned, ℝ^m vectors (residuals) are partitioned alike, ℝ^n vectors
// (solutions) are replicated.  Solvers sample *columns*, so a rank holds
// its rows in exactly one column-oriented layout, built straight from the
// dataset: one CSR row per feature column (sparse mode, O(nnz(column))
// gathers) or a column-major staged copy (dense mode).
//
// ColBlock is the SVM layout (paper §V): A is 1D-column partitioned, the
// primal iterate x ∈ ℝ^n is partitioned, the dual iterate α ∈ ℝ^m and the
// labels are replicated.  Solvers sample *rows*, so a rank holds its
// columns in one row-oriented layout: the CSR column slice (sparse mode)
// or a row-major staged copy (dense mode).
//
// Each block offers the sampled coordinates as zero-copy la::BatchView
// descriptors (view_*) over its resident CSR arrays (sparse mode) or over
// its staged dense copy (dense mode) — the allocation-free path every
// engine runs.  Both blocks share one member-view routine.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "la/batch_view.hpp"
#include "la/csr.hpp"
#include "la/workspace.hpp"

namespace sa::core {

/// Density above which sampled vectors are batched densely (BLAS-3 path).
inline constexpr double kDenseBatchThreshold = 0.25;

/// The row block of one rank under 1D-row partitioning.
class RowBlock {
 public:
  /// Extracts rank `rank`'s block of `dataset` under `rows`.
  RowBlock(const data::Dataset& dataset, const data::Partition& rows,
           int rank);

  std::size_t local_rows() const { return local_rows_; }
  std::size_t num_features() const { return num_features_; }
  const std::vector<double>& labels() const { return b_; }

  /// Views the given global columns (restricted to local rows) as a batch
  /// of dim local_rows(); storage (dense vs sparse) follows the matrix
  /// density.  Sparse members alias the resident column CSR directly; in
  /// dense-batch mode the members point into a column-major staged copy
  /// of the whole local block, densified ONCE at construction and kept
  /// alive across iterations — sampled views then cost only k pointer
  /// writes, no per-iteration memset + scatter.  The view is valid until
  /// the next view_columns call on the same workspace.
  la::BatchView view_columns(std::span<const std::size_t> cols,
                             la::Workspace& ws) const;

 private:
  std::size_t local_rows_ = 0;
  std::size_t num_features_ = 0;
  // One CSR row per feature column over the local rows (n × m_loc),
  // sparse-batch mode only.
  la::CsrMatrix columns_;
  std::vector<double> b_;
  bool dense_batches_ = false;
  // Column-major dense copy (n × m_loc, one column per run) backing
  // dense-mode views, in place of columns_; built at construction in
  // dense-batch mode only (so solves on the sparse path never pay for
  // it) — allocating it before the solve's small round buffers keeps the
  // large block's placement, and so the peak RSS, independent of them.
  std::vector<double> stage_;
};

/// The column block of one rank under 1D-column partitioning.
class ColBlock {
 public:
  ColBlock(const data::Dataset& dataset, const data::Partition& cols,
           int rank);

  std::size_t num_points() const { return num_points_; }
  std::size_t local_cols() const { return local_cols_; }
  /// Labels are replicated on every rank.
  const std::vector<double>& labels() const { return b_; }

  /// Views the given global rows (restricted to local columns) as a batch
  /// of dim local_cols().  Sparse members alias the CSR row arrays
  /// directly; dense-batch mode points into a row-major staged copy of the
  /// local block, densified once at construction and reused across
  /// iterations.  Valid until the next view_rows call on the same
  /// workspace.
  la::BatchView view_rows(std::span<const std::size_t> rows,
                          la::Workspace& ws) const;

  /// The chunk partials of the margins A·x over rows [row_begin, row_end)
  /// for the local slice `x`: la::CsrMatrix::spmv_col_chunks' contract,
  /// with the same bits in both modes.  Dense mode walks the stage and
  /// adds every product of a chunk in column order; the products of the
  /// zeros the CSR slice skips are ±0.0, and adding them to a partial
  /// that starts at +0.0 leaves it unchanged (such a partial is never
  /// −0.0), so the sums match while x is finite.
  void margin_chunks(std::span<const double> x,
                     std::span<const std::size_t> bounds,
                     std::size_t row_begin, std::size_t row_end,
                     std::span<double> out) const;

 private:
  std::size_t num_points_ = 0;
  std::size_t local_cols_ = 0;
  la::CsrMatrix a_;  // m × n_loc, sparse-batch mode only
  std::vector<double> b_;
  bool dense_batches_ = false;
  // Dense copy (m × n_loc) backing dense-mode views and margins, in place
  // of a_; built at construction in dense-batch mode only (see
  // RowBlock::stage_).
  std::vector<double> stage_;
};

}  // namespace sa::core
