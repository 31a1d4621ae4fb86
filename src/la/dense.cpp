#include "la/dense.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "la/vector_ops.hpp"

namespace sa::la {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols,
                         std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  SA_CHECK(data_.size() == rows_ * cols_,
           "DenseMatrix: data size does not match rows*cols");
}

void DenseMatrix::reshape(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  // sa-lint: allow(alloc): capacity retained, steady rounds keep one shape
  data_.resize(rows * cols);
}

DenseMatrix DenseMatrix::transposed() const {
  DenseMatrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  return t;
}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix id(n, n);
  for (std::size_t i = 0; i < n; ++i) id(i, i) = 1.0;
  return id;
}

double DenseMatrix::max_abs_diff(const DenseMatrix& other) const {
  SA_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
           "max_abs_diff: shape mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  return worst;
}

void gemv(double alpha, const DenseMatrix& a, std::span<const double> x,
          double beta, std::span<double> y) {
  SA_CHECK(x.size() == a.cols() && y.size() == a.rows(),
           "gemv: dimension mismatch");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    y[i] = beta * y[i] + alpha * dot(a.row(i), x);
  }
}

DenseMatrix gemm(const DenseMatrix& a, const DenseMatrix& b) {
  SA_CHECK(a.cols() == b.rows(), "gemm: inner dimension mismatch");
  DenseMatrix c(a.rows(), b.cols());
  // i-k-j loop order: streams B and C rows, the cache-friendly ordering for
  // row-major storage.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    std::span<double> ci = c.row(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      axpy(aik, b.row(k), ci);
    }
  }
  return c;
}

DenseMatrix gram_upper(const DenseMatrix& a) {
  const std::size_t n = a.cols();
  DenseMatrix g(n, n);
  // Upper triangle via streaming rank-1 accumulation, then mirror.
  for (std::size_t k = 0; k < a.rows(); ++k) {
    std::span<const double> ak = a.row(k);
    for (std::size_t i = 0; i < n; ++i) {
      const double aki = ak[i];
      if (aki == 0.0) continue;
      for (std::size_t j = i; j < n; ++j) g(i, j) += aki * ak[j];
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) g(j, i) = g(i, j);
  return g;
}

}  // namespace sa::la
