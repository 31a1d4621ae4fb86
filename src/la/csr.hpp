// Compressed Sparse Row matrix.
//
// CSR is the on-disk and in-memory format for all datasets (matching the
// paper, which stores LIBSVM data in 3-array CSR).  Solvers slice it by
// rows (1D-row partitioning for Lasso) and gather rows from it (SVM).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "la/dense.hpp"
#include "la/sparse_vector.hpp"

namespace sa::la {

/// A (row, col, value) entry used to assemble sparse matrices.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

/// Immutable-shape CSR sparse matrix (3-array variant).
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from raw CSR arrays.  indptr must have rows+1 entries,
  /// indices/values nnz entries with column indices sorted within each row.
  CsrMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::size_t> indptr, std::vector<std::size_t> indices,
            std::vector<double> values);

  /// Assembles from an unordered triplet list; duplicate (row, col) entries
  /// are summed.
  static CsrMatrix from_triplets(std::size_t rows, std::size_t cols,
                                 std::vector<Triplet> triplets);

  /// Converts a dense matrix, keeping entries with |value| > drop_tol.
  static CsrMatrix from_dense(const DenseMatrix& a, double drop_tol = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// Fraction of nonzeros: nnz / (rows * cols); 0 for empty shapes.
  double density() const;

  std::span<const std::size_t> indptr() const { return indptr_; }
  std::span<const std::size_t> indices() const { return indices_; }
  std::span<const double> values() const { return values_; }

  /// Column indices of row i.
  std::span<const std::size_t> row_indices(std::size_t i) const;
  /// Nonzero values of row i.
  std::span<const double> row_values(std::size_t i) const;
  std::size_t row_nnz(std::size_t i) const;

  /// y := A * x.
  void spmv(std::span<const double> x, std::span<double> y) const;

  /// y := A' * x.
  void spmv_transpose(std::span<const double> x, std::span<double> y) const;

  /// The column-chunked spmv over rows [row_begin, row_end): for every
  /// chunk c of the n + 1 monotone column boundaries `bounds`,
  /// out[c·rows + (i − row_begin)] = A(i, [bounds[c], bounds[c + 1])) · x
  /// (rows = row_end − row_begin) — the per-global-chunk partials of the
  /// fixed reduction grouping (common/grouping.hpp), all emitted by one
  /// CSR row walk.  `x` is the FULL length-cols() vector.  Accumulates per
  /// row and chunk in nonzero order over a scalar loop, so a chunk
  /// partial depends only on the in-chunk nonzeros — identical bits on
  /// every rank count.  out.size() must be n·rows.
  void spmv_col_chunks(std::span<const double> x,
                       std::span<const std::size_t> bounds,
                       std::size_t row_begin, std::size_t row_end,
                       std::span<double> out) const;

  /// Returns the contiguous row block [row_begin, row_end) as a new matrix
  /// with the same column dimension (1D-row partitioning).
  CsrMatrix row_slice(std::size_t row_begin, std::size_t row_end) const;

  /// Returns the contiguous column block [col_begin, col_end) as a new
  /// matrix with the same row dimension (1D-column partitioning).
  CsrMatrix col_slice(std::size_t col_begin, std::size_t col_end) const;

  /// Returns row i as a standalone sparse vector of length cols().
  SparseVector gather_row(std::size_t i) const;

  /// Returns the explicit transpose (i.e. the CSC view materialised as CSR).
  CsrMatrix transposed() const;

  /// Returns the transpose of the row block [row_begin, row_end) — one row
  /// per column of this matrix, indexed by local row (i − row_begin) —
  /// without materialising the slice: bitwise
  /// row_slice(row_begin, row_end).transposed().
  CsrMatrix transposed(std::size_t row_begin, std::size_t row_end) const;

  /// Densifies (intended for tests and small matrices).
  DenseMatrix to_dense() const;

  /// Squared Euclidean norm of every row (the SVM η_h = ||A_i||² + γ terms).
  std::vector<double> row_norms_squared() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> indptr_;
  std::vector<std::size_t> indices_;
  std::vector<double> values_;
};

}  // namespace sa::la
