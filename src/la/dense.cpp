#include "la/dense.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

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

double DenseMatrix::max_abs_diff(const DenseMatrix& other) const {
  SA_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
           "max_abs_diff: shape mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    worst = std::max(worst, std::abs(data_[i] - other.data_[i]));
  return worst;
}

}  // namespace sa::la
