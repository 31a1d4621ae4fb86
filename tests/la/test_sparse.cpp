// Unit tests for CsrMatrix (including its transposes).
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "la/csr.hpp"
#include "la/vector_ops.hpp"

namespace sa::la {
namespace {

CsrMatrix make_example() {
  // [ 1 0 2 ]
  // [ 0 0 0 ]
  // [ 3 4 0 ]
  return CsrMatrix::from_triplets(
      3, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {2, 0, 3.0}, {2, 1, 4.0}});
}

// ---------------------------------------------------------------- CSR

TEST(CsrMatrix, FromTripletsBuildsExpectedStructure) {
  const CsrMatrix a = make_example();
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.cols(), 3u);
  EXPECT_EQ(a.nnz(), 4u);
  EXPECT_EQ(a.row_nnz(0), 2u);
  EXPECT_EQ(a.row_nnz(1), 0u);
  EXPECT_EQ(a.row_nnz(2), 2u);
}

TEST(CsrMatrix, FromTripletsSumsDuplicates) {
  const CsrMatrix a =
      CsrMatrix::from_triplets(1, 1, {{0, 0, 1.0}, {0, 0, 2.5}});
  EXPECT_EQ(a.nnz(), 1u);
  EXPECT_DOUBLE_EQ(a.row_values(0)[0], 3.5);
}

TEST(CsrMatrix, FromTripletsRejectsOutOfRange) {
  EXPECT_THROW(CsrMatrix::from_triplets(1, 1, {{1, 0, 1.0}}),
               PreconditionError);
}

TEST(CsrMatrix, ConstructorValidatesIndptr) {
  EXPECT_THROW(CsrMatrix(1, 1, {0}, {}, {}), PreconditionError);
  EXPECT_THROW(CsrMatrix(1, 1, {0, 2}, {0}, {1.0}), PreconditionError);
}

TEST(CsrMatrix, ConstructorRejectsUnsortedColumns) {
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {2, 0}, {1.0, 2.0}),
               PreconditionError);
}

TEST(CsrMatrix, DensityCountsFraction) {
  EXPECT_NEAR(make_example().density(), 4.0 / 9.0, 1e-15);
}

TEST(CsrMatrix, SpmvMatchesDense) {
  const CsrMatrix a = make_example();
  const std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y(3, -1.0);
  a.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);   // 1 + 6
  EXPECT_DOUBLE_EQ(y[1], 0.0);   // empty row overwrites
  EXPECT_DOUBLE_EQ(y[2], 11.0);  // 3 + 8
}

TEST(CsrMatrix, SpmvTransposeMatchesExplicitTranspose) {
  const CsrMatrix a = make_example();
  const std::vector<double> x{1.0, -1.0, 2.0};
  std::vector<double> y1(3), y2(3);
  a.spmv_transpose(x, y1);
  a.transposed().spmv(x, y2);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(y1[j], y2[j]);
}

TEST(CsrMatrix, TransposeTwiceIsIdentity) {
  const CsrMatrix a = make_example();
  const CsrMatrix att = a.transposed().transposed();
  EXPECT_LT(a.to_dense().max_abs_diff(att.to_dense()), 1e-15);
}

TEST(CsrMatrix, RowSliceKeepsContents) {
  const CsrMatrix a = make_example();
  const CsrMatrix s = a.row_slice(1, 3);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.cols(), 3u);
  EXPECT_EQ(s.nnz(), 2u);
  EXPECT_DOUBLE_EQ(s.to_dense()(1, 0), 3.0);
}

TEST(CsrMatrix, RowSliceEmptyRangeIsEmptyMatrix) {
  const CsrMatrix s = make_example().row_slice(1, 1);
  EXPECT_EQ(s.rows(), 0u);
  EXPECT_EQ(s.nnz(), 0u);
}

TEST(CsrMatrix, ColSliceShiftsIndices) {
  const CsrMatrix a = make_example();
  const CsrMatrix s = a.col_slice(1, 3);  // columns 1..2
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_DOUBLE_EQ(s.to_dense()(0, 1), 2.0);  // old (0,2)
  EXPECT_DOUBLE_EQ(s.to_dense()(2, 0), 4.0);  // old (2,1)
}

TEST(CsrMatrix, RowNormsSquared) {
  const std::vector<double> norms = make_example().row_norms_squared();
  EXPECT_DOUBLE_EQ(norms[0], 5.0);
  EXPECT_DOUBLE_EQ(norms[1], 0.0);
  EXPECT_DOUBLE_EQ(norms[2], 25.0);
}

TEST(CsrMatrix, FromDenseRoundTrip) {
  const CsrMatrix a = make_example();
  const CsrMatrix b = CsrMatrix::from_dense(a.to_dense());
  EXPECT_EQ(b.nnz(), a.nnz());
  EXPECT_LT(a.to_dense().max_abs_diff(b.to_dense()), 1e-15);
}

TEST(CsrMatrix, EmptyRowsAtTailHaveValidIndptr) {
  const CsrMatrix a = CsrMatrix::from_triplets(4, 2, {{0, 0, 1.0}});
  EXPECT_EQ(a.row_nnz(3), 0u);
  std::vector<double> y(4, -1.0);
  a.spmv(std::vector<double>{1.0, 1.0}, y);
  EXPECT_DOUBLE_EQ(y[3], 0.0);
}

// ------------------------------------------------------------ transpose

TEST(Transposed, RowIsTheDenseColumn) {
  const CsrMatrix at = make_example().transposed();
  EXPECT_EQ(at.cols(), 3u);
  ASSERT_EQ(at.row_nnz(0), 2u);
  EXPECT_EQ(at.row_indices(0)[0], 0u);
  EXPECT_EQ(at.row_indices(0)[1], 2u);
  EXPECT_DOUBLE_EQ(at.row_values(0)[0], 1.0);
  EXPECT_DOUBLE_EQ(at.row_values(0)[1], 3.0);
}

TEST(Transposed, ShapeMirrorsOriginal) {
  const CsrMatrix a = CsrMatrix::from_triplets(2, 5, {{1, 4, 1.0}});
  const CsrMatrix at = a.transposed();
  EXPECT_EQ(at.rows(), 5u);
  EXPECT_EQ(at.cols(), 2u);
  EXPECT_EQ(at.nnz(), 1u);
  EXPECT_EQ(at.row_nnz(4), 1u);
  EXPECT_EQ(at.row_nnz(0), 0u);
}

TEST(Transposed, RowNormsAreColumnNorms) {
  const std::vector<double> norms =
      make_example().transposed().row_norms_squared();
  EXPECT_DOUBLE_EQ(norms[0], 10.0);  // 1² + 3²
  EXPECT_DOUBLE_EQ(norms[1], 16.0);
  EXPECT_DOUBLE_EQ(norms[2], 4.0);
}

/// Exact equality of two CSR matrices: shape, structure and value bits.
void expect_bitwise_equal(const CsrMatrix& got, const CsrMatrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  ASSERT_EQ(got.nnz(), want.nnz());
  for (std::size_t i = 0; i <= want.rows(); ++i)
    EXPECT_EQ(got.indptr()[i], want.indptr()[i]) << "indptr " << i;
  for (std::size_t k = 0; k < want.nnz(); ++k) {
    EXPECT_EQ(got.indices()[k], want.indices()[k]) << "index " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.values()[k]),
              std::bit_cast<std::uint64_t>(want.values()[k]))
        << "value " << k;
  }
}

TEST(Transposed, RowRangeIsBitwiseTheSliceTranspose) {
  // 9 × 7 with empty rows (0, 4, 8), a column (5) whose only entry is an
  // explicit zero, and inexact values.
  std::vector<Triplet> t;
  for (std::size_t i = 1; i < 8; ++i) {
    if (i == 4) continue;
    for (std::size_t j = 0; j < 7; ++j)
      if (j != 5 && (i * 3 + j * 5) % 4 != 0)
        t.push_back({i, j, 0.1 * static_cast<double>(i) - 1.0 / (j + 3.0)});
  }
  t.push_back({2, 5, 0.0});
  const CsrMatrix a = CsrMatrix::from_triplets(9, 7, t);
  const std::size_t ranges[][2] = {{0, 0}, {4, 4}, {9, 9}, {0, 1},
                                   {2, 6}, {3, 5}, {4, 5}, {5, 9},
                                   {0, 9}};
  for (const auto& r : ranges) {
    SCOPED_TRACE(testing::Message() << "rows [" << r[0] << ", " << r[1]
                                    << ")");
    expect_bitwise_equal(a.transposed(r[0], r[1]),
                         a.row_slice(r[0], r[1]).transposed());
  }
  expect_bitwise_equal(a.transposed(0, a.rows()), a.transposed());
}

TEST(Transposed, RowRangeRejectsInvalidRange) {
  const CsrMatrix a = make_example();
  EXPECT_THROW(a.transposed(2, 1), PreconditionError);
  EXPECT_THROW(a.transposed(0, 4), PreconditionError);
}

/// Property sweep: SpMV against densified reference on random-ish shapes.
class CsrSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(CsrSweep, SpmvMatchesDenseReference) {
  const auto [m, n] = GetParam();
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = i % 3; j < n; j += 3)
      triplets.push_back({i, j, std::sin(static_cast<double>(i + 7 * j))});
  const CsrMatrix a = CsrMatrix::from_triplets(m, n, triplets);
  const DenseMatrix d = a.to_dense();

  std::vector<double> x(n);
  for (std::size_t j = 0; j < n; ++j) x[j] = std::cos(static_cast<double>(j));
  std::vector<double> y1(m), y2(m);
  a.spmv(x, y1);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) y2[i] += d(i, j) * x[j];
  for (std::size_t i = 0; i < m; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CsrSweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{3, 17},
                      std::pair<std::size_t, std::size_t>{17, 3},
                      std::pair<std::size_t, std::size_t>{40, 40}));

}  // namespace
}  // namespace sa::la
