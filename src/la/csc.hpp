// Compressed Sparse Column view.
//
// The Lasso solvers sample *columns* of a row-partitioned CSR matrix every
// iteration; gathering a column from CSR is O(nnz).  CscMatrix materialises
// the transpose once so each gather is O(nnz(column)).
#pragma once

#include <cstddef>
#include <vector>

#include "la/csr.hpp"
#include "la/sparse_vector.hpp"

namespace sa::la {

/// Column-compressed mirror of a CSR matrix.
///
/// Internally stores the transpose in CSR form; the public interface speaks
/// in terms of the original (rows × cols) orientation.
class CscMatrix {
 public:
  CscMatrix() = default;

  /// Builds the CSC mirror of `a` (one-time O(nnz) transpose).
  explicit CscMatrix(const CsrMatrix& a);

  std::size_t rows() const { return csr_t_.cols(); }
  std::size_t cols() const { return csr_t_.rows(); }
  std::size_t nnz() const { return csr_t_.nnz(); }

  /// Row indices of the nonzeros in column j.
  std::span<const std::size_t> col_indices(std::size_t j) const {
    return csr_t_.row_indices(j);
  }
  /// Nonzero values of column j.
  std::span<const double> col_values(std::size_t j) const {
    return csr_t_.row_values(j);
  }
  std::size_t col_nnz(std::size_t j) const { return csr_t_.row_nnz(j); }

  /// Returns column j as a standalone sparse vector of length rows().
  SparseVector gather_column(std::size_t j) const {
    return csr_t_.gather_row(j);
  }

  /// Squared Euclidean norm of every column.
  std::vector<double> col_norms_squared() const {
    return csr_t_.row_norms_squared();
  }

 private:
  CsrMatrix csr_t_;
};

}  // namespace sa::la
