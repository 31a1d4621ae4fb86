#include "la/csr.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "la/simd/simd.hpp"
#include "la/vector_ops.hpp"

namespace sa::la {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::size_t> indptr,
                     std::vector<std::size_t> indices,
                     std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      indptr_(std::move(indptr)),
      indices_(std::move(indices)),
      values_(std::move(values)) {
  SA_CHECK(indptr_.size() == rows_ + 1, "CsrMatrix: indptr size must be rows+1");
  SA_CHECK(indices_.size() == values_.size(),
           "CsrMatrix: indices/values size mismatch");
  SA_CHECK(indptr_.front() == 0 && indptr_.back() == indices_.size(),
           "CsrMatrix: indptr must start at 0 and end at nnz");
  for (std::size_t i = 0; i < rows_; ++i) {
    SA_CHECK(indptr_[i] <= indptr_[i + 1], "CsrMatrix: indptr must be monotone");
    for (std::size_t k = indptr_[i]; k < indptr_[i + 1]; ++k) {
      SA_CHECK(indices_[k] < cols_, "CsrMatrix: column index out of range");
      if (k > indptr_[i])
        SA_CHECK(indices_[k - 1] < indices_[k],
                 "CsrMatrix: column indices must be sorted within a row");
    }
  }
}

CsrMatrix CsrMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                   std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    SA_CHECK(t.row < rows && t.col < cols,
             "from_triplets: entry out of range");
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  std::vector<std::size_t> indptr(rows + 1, 0);
  std::vector<std::size_t> indices;
  std::vector<double> values;
  indices.reserve(triplets.size());
  values.reserve(triplets.size());
  for (std::size_t k = 0; k < triplets.size();) {
    const std::size_t r = triplets[k].row;
    const std::size_t c = triplets[k].col;
    double v = 0.0;
    while (k < triplets.size() && triplets[k].row == r &&
           triplets[k].col == c) {
      v += triplets[k].value;  // duplicates are summed
      ++k;
    }
    indices.push_back(c);
    values.push_back(v);
    indptr[r + 1] = indices.size();
  }
  // Fill gaps for empty rows: indptr[i+1] currently 0 for rows with no
  // entries after the last populated row; make it cumulative.
  for (std::size_t i = 1; i <= rows; ++i)
    indptr[i] = std::max(indptr[i], indptr[i - 1]);
  return CsrMatrix(rows, cols, std::move(indptr), std::move(indices),
                   std::move(values));
}

CsrMatrix CsrMatrix::from_dense(const DenseMatrix& a, double drop_tol) {
  std::vector<std::size_t> indptr(a.rows() + 1, 0);
  std::vector<std::size_t> indices;
  std::vector<double> values;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (std::abs(a(i, j)) > drop_tol) {
        indices.push_back(j);
        values.push_back(a(i, j));
      }
    }
    indptr[i + 1] = indices.size();
  }
  return CsrMatrix(a.rows(), a.cols(), std::move(indptr), std::move(indices),
                   std::move(values));
}

double CsrMatrix::density() const {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(nnz()) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

std::span<const std::size_t> CsrMatrix::row_indices(std::size_t i) const {
  SA_CHECK(i < rows_, "row_indices: row out of range");
  return std::span<const std::size_t>(indices_.data() + indptr_[i],
                                      indptr_[i + 1] - indptr_[i]);
}

std::span<const double> CsrMatrix::row_values(std::size_t i) const {
  SA_CHECK(i < rows_, "row_values: row out of range");
  return std::span<const double>(values_.data() + indptr_[i],
                                 indptr_[i + 1] - indptr_[i]);
}

std::size_t CsrMatrix::row_nnz(std::size_t i) const {
  SA_CHECK(i < rows_, "row_nnz: row out of range");
  return indptr_[i + 1] - indptr_[i];
}

void CsrMatrix::spmv(std::span<const double> x, std::span<double> y) const {
  SA_CHECK(x.size() == cols_ && y.size() == rows_, "spmv: dimension mismatch");
  // Rows are independent (one writer per y[i]), so the loop parallelises
  // deterministically; the row kernel is the dispatched gather dot
  // (two-accumulator legacy order at the scalar level, vector gathers
  // above it).  Small matrices stay serial to avoid fork cost.
  const bool parallel = 2 * nnz() >= kParallelFlopThreshold && rows_ > 1;
  const simd::KernelTable& kt = simd::active();
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 64) if (parallel)
#endif
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(rows_); ++i) {
    const std::size_t begin = indptr_[i];
    y[i] = kt.gather_dot2(values_.data() + begin, indices_.data() + begin,
                          indptr_[i + 1] - begin, x.data());
  }
  (void)parallel;
}

void CsrMatrix::spmv_col_chunks(std::span<const double> x,
                                std::span<const std::size_t> bounds,
                                std::size_t row_begin, std::size_t row_end,
                                std::span<double> out) const {
  SA_CHECK(row_begin <= row_end && row_end <= rows_,
           "spmv_col_chunks: invalid row range");
  const std::size_t rows = row_end - row_begin;
  SA_CHECK(!bounds.empty() && x.size() == cols_ &&
               out.size() == (bounds.size() - 1) * rows,
           "spmv_col_chunks: dimension mismatch");
  SA_CHECK(bounds.back() <= cols_ &&
               std::is_sorted(bounds.begin(), bounds.end()),
           "spmv_col_chunks: invalid chunk bounds");
  // Scalar nonzero-order accumulation straight into the zero-filled
  // output: a chunk partial depends only on the in-chunk nonzeros, so
  // every rank count (including serial, which walks the same global chunk
  // grid) produces identical bits.  A column-to-chunk table makes the
  // row walk branch-free: each nonzero lands in its chunk's partial.
  const std::size_t n = bounds.size() - 1;
  const std::size_t lo = bounds.front();
  const std::size_t hi = bounds.back();
  std::fill(out.begin(), out.end(), 0.0);
  // Grow-only per-thread scratch: entry col − lo holds its chunk's offset
  // into `out` (chunk · rows).
  thread_local std::vector<std::size_t> chunk_offset;
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (chunk_offset.size() < hi - lo) chunk_offset.resize(hi - lo);
  for (std::size_t c = 0; c < n; ++c)
    std::fill(chunk_offset.begin() + (bounds[c] - lo),
              chunk_offset.begin() + (bounds[c + 1] - lo), c * rows);
  for (std::size_t i = row_begin; i < row_end; ++i) {
    double* row = out.data() + (i - row_begin);
    const std::size_t* last = indices_.data() + indptr_[i + 1];
    for (const std::size_t* k =
             std::lower_bound(indices_.data() + indptr_[i], last, lo);
         k != last && *k < hi; ++k)
      row[chunk_offset[*k - lo]] +=
          values_[static_cast<std::size_t>(k - indices_.data())] * x[*k];
  }
}

void CsrMatrix::spmv_transpose(std::span<const double> x,
                               std::span<double> y) const {
  SA_CHECK(x.size() == rows_ && y.size() == cols_,
           "spmv_transpose: dimension mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t k = indptr_[i]; k < indptr_[i + 1]; ++k)
      y[indices_[k]] += values_[k] * xi;
  }
}

CsrMatrix CsrMatrix::row_slice(std::size_t row_begin,
                               std::size_t row_end) const {
  SA_CHECK(row_begin <= row_end && row_end <= rows_,
           "row_slice: invalid range");
  const std::size_t base = indptr_[row_begin];
  std::vector<std::size_t> indptr(row_end - row_begin + 1);
  for (std::size_t i = row_begin; i <= row_end; ++i)
    indptr[i - row_begin] = indptr_[i] - base;
  std::vector<std::size_t> indices(indices_.begin() + base,
                                   indices_.begin() + indptr_[row_end]);
  std::vector<double> values(values_.begin() + base,
                             values_.begin() + indptr_[row_end]);
  return CsrMatrix(row_end - row_begin, cols_, std::move(indptr),
                   std::move(indices), std::move(values));
}

CsrMatrix CsrMatrix::col_slice(std::size_t col_begin,
                               std::size_t col_end) const {
  SA_CHECK(col_begin <= col_end && col_end <= cols_,
           "col_slice: invalid range");
  std::vector<std::size_t> indptr(rows_ + 1, 0);
  std::vector<std::size_t> indices;
  std::vector<double> values;
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = indptr_[i]; k < indptr_[i + 1]; ++k) {
      const std::size_t j = indices_[k];
      if (j >= col_begin && j < col_end) {
        indices.push_back(j - col_begin);
        values.push_back(values_[k]);
      }
    }
    indptr[i + 1] = indices.size();
  }
  return CsrMatrix(rows_, col_end - col_begin, std::move(indptr),
                   std::move(indices), std::move(values));
}

CsrMatrix CsrMatrix::transposed() const { return transposed(0, rows_); }

CsrMatrix CsrMatrix::transposed(std::size_t row_begin,
                                std::size_t row_end) const {
  SA_CHECK(row_begin <= row_end && row_end <= rows_,
           "transposed: invalid row range");
  const std::size_t first = indptr_[row_begin];
  const std::size_t last = indptr_[row_end];
  std::vector<std::size_t> indptr(cols_ + 1, 0);
  for (std::size_t k = first; k < last; ++k) ++indptr[indices_[k] + 1];
  for (std::size_t j = 0; j < cols_; ++j) indptr[j + 1] += indptr[j];
  std::vector<std::size_t> indices(last - first);
  std::vector<double> values(last - first);
  std::vector<std::size_t> next(indptr.begin(), indptr.end() - 1);
  for (std::size_t i = row_begin; i < row_end; ++i) {
    for (std::size_t k = indptr_[i]; k < indptr_[i + 1]; ++k) {
      const std::size_t pos = next[indices_[k]]++;
      indices[pos] = i - row_begin;
      values[pos] = values_[k];
    }
  }
  return CsrMatrix(cols_, row_end - row_begin, std::move(indptr),
                   std::move(indices), std::move(values));
}

DenseMatrix CsrMatrix::to_dense() const {
  DenseMatrix out(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t k = indptr_[i]; k < indptr_[i + 1]; ++k)
      out(i, indices_[k]) = values_[k];
  return out;
}

std::vector<double> CsrMatrix::row_norms_squared() const {
  std::vector<double> out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t k = indptr_[i]; k < indptr_[i + 1]; ++k)
      out[i] += values_[k] * values_[k];
  return out;
}

}  // namespace sa::la
