// Row-major dense matrix.
//
// DenseMatrix is the workhorse for the small Gram matrices at the heart of
// the synchronization-avoiding methods (µ×µ and sµ×sµ), for dense datasets
// (epsilon, gisette, leu twins), and for the eigensolvers in eigen.hpp.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sa::la {

/// Row-major dense matrix of doubles.
///
/// Storage is a single contiguous vector; row(i) returns a span over the
/// i-th row.  The class is a plain value type: copyable, movable, and
/// comparable by contents in tests.
class DenseMatrix {
 public:
  DenseMatrix() = default;

  /// Creates a rows×cols matrix initialised to zero.
  DenseMatrix(std::size_t rows, std::size_t cols);

  /// Creates a rows×cols matrix from row-major data (size must match).
  DenseMatrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  std::span<double> row(std::size_t i) {
    return std::span<double>(data_.data() + i * cols_, cols_);
  }
  std::span<const double> row(std::size_t i) const {
    return std::span<const double>(data_.data() + i * cols_, cols_);
  }

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  /// Reshapes to rows×cols in place, reusing the existing storage
  /// (grow-only capacity: shrinking never frees, regrowing within the
  /// high-water mark never allocates).  Contents are unspecified after a
  /// reshape — callers overwrite.  Used by the s-step solvers to reuse one
  /// scratch matrix across variable-size diagonal blocks.
  void reshape(std::size_t rows, std::size_t cols);

  /// Returns the transpose as a new matrix.
  DenseMatrix transposed() const;

  /// Maximum absolute entrywise difference to another matrix of equal shape.
  double max_abs_diff(const DenseMatrix& other) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace sa::la
