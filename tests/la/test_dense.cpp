// Unit tests for DenseMatrix.
#include "la/dense.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"

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

TEST(DenseMatrix, MaxAbsDiffDetectsSingleEntryChange) {
  DenseMatrix a = make_counting(2, 2);
  DenseMatrix b = a;
  b(1, 1) += 0.5;
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.5);
}

}  // namespace
}  // namespace sa::la
