// Unit tests for DenseMatrix and the BLAS-2/3 kernels.
#include "la/dense.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "la/vector_ops.hpp"

namespace sa::la {
namespace {

DenseMatrix make_counting(std::size_t rows, std::size_t cols) {
  DenseMatrix a(rows, cols);
  double v = 1.0;
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) a(i, j) = v++;
  return a;
}

TEST(DenseMatrix, ConstructsZeroInitialised) {
  const DenseMatrix a(2, 3);
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_EQ(a.cols(), 3u);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(a(i, j), 0.0);
}

TEST(DenseMatrix, ConstructorRejectsWrongDataSize) {
  EXPECT_THROW(DenseMatrix(2, 2, std::vector<double>{1.0}),
               PreconditionError);
}

TEST(DenseMatrix, RowSpanAliasesStorage) {
  DenseMatrix a = make_counting(2, 2);
  a.row(1)[0] = 42.0;
  EXPECT_DOUBLE_EQ(a(1, 0), 42.0);
}

TEST(DenseMatrix, TransposedSwapsIndices) {
  const DenseMatrix a = make_counting(2, 3);
  const DenseMatrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(t(j, i), a(i, j));
}

TEST(DenseMatrix, IdentityHasUnitDiagonal) {
  const DenseMatrix id = DenseMatrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
}

TEST(DenseMatrix, MaxAbsDiffDetectsSingleEntryChange) {
  DenseMatrix a = make_counting(2, 2);
  DenseMatrix b = a;
  b(1, 1) += 0.5;
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.5);
}

TEST(Gemv, MatchesManualProduct) {
  const DenseMatrix a = make_counting(2, 3);  // [1 2 3; 4 5 6]
  const std::vector<double> x{1.0, 0.0, -1.0};
  std::vector<double> y{100.0, 200.0};
  gemv(1.0, a, x, 0.0, y);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(Gemv, AppliesAlphaAndBeta) {
  const DenseMatrix a = DenseMatrix::identity(2);
  const std::vector<double> x{1.0, 2.0};
  std::vector<double> y{10.0, 10.0};
  gemv(3.0, a, x, 0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 8.0);   // 0.5·10 + 3·1
  EXPECT_DOUBLE_EQ(y[1], 11.0);  // 0.5·10 + 3·2
}

TEST(Gemm, IdentityIsNeutral) {
  const DenseMatrix a = make_counting(3, 3);
  const DenseMatrix c = gemm(a, DenseMatrix::identity(3));
  EXPECT_DOUBLE_EQ(c.max_abs_diff(a), 0.0);
}

TEST(Gemm, MatchesManual2x2) {
  DenseMatrix a(2, 2, {1.0, 2.0, 3.0, 4.0});
  DenseMatrix b(2, 2, {5.0, 6.0, 7.0, 8.0});
  const DenseMatrix c = gemm(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Gemm, RejectsInnerDimensionMismatch) {
  const DenseMatrix a(2, 3);
  const DenseMatrix b(2, 2);
  EXPECT_THROW(gemm(a, b), PreconditionError);
}

TEST(GramUpper, EqualsAtTimesA) {
  const DenseMatrix a = make_counting(5, 3);
  const DenseMatrix g = gram_upper(a);
  const DenseMatrix ref = gemm(a.transposed(), a);
  EXPECT_LT(g.max_abs_diff(ref), 1e-12);
}

TEST(GramUpper, IsSymmetric) {
  const DenseMatrix a = make_counting(4, 4);
  const DenseMatrix g = gram_upper(a);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_DOUBLE_EQ(g(i, j), g(j, i));
}

/// Parameterized shape sweep: gram_upper consistency over rectangular
/// shapes, both tall and wide.
class DenseShapeSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(DenseShapeSweep, GramMatchesGemmReference) {
  const auto [m, n] = GetParam();
  DenseMatrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = std::sin(static_cast<double>(i * n + j));
  const DenseMatrix g = gram_upper(a);
  const DenseMatrix ref = gemm(a.transposed(), a);
  EXPECT_LT(g.max_abs_diff(ref), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DenseShapeSweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{1, 8},
                      std::pair<std::size_t, std::size_t>{8, 1},
                      std::pair<std::size_t, std::size_t>{16, 5},
                      std::pair<std::size_t, std::size_t>{5, 16},
                      std::pair<std::size_t, std::size_t>{32, 32}));

}  // namespace
}  // namespace sa::la
