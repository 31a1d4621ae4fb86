// Unit tests for the small symmetric eigensolver (cyclic Jacobi).
#include "la/eigen.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "la/simd/simd.hpp"

namespace sa::la {
namespace {

/// In-place entry point on a copy, so callers keep their matrix.
double largest_of(DenseMatrix a) { return largest_eigenvalue_psd(a); }

/// PSD G = BᵀB with B (n + 2)×n of smooth, deterministic entries, by the
/// textbook triple loop.
DenseMatrix sine_gram(std::size_t n) {
  DenseMatrix b(n + 2, n);
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < n; ++j)
      b(i, j) = std::sin(static_cast<double>(i * n + j + 1));
  DenseMatrix g(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t r = 0; r < b.rows(); ++r) g(i, j) += b(r, i) * b(r, j);
  return g;
}

/// Two nearly equal leading eigenvalues, 5 ± 1e-8 (a power iteration
/// needs ~1e9 steps to separate them).
DenseMatrix clustered_block() {
  DenseMatrix a(3, 3);
  a(0, 0) = 5.0;
  a(1, 1) = 5.0 - 1e-14;
  a(2, 2) = 1.0;
  a(0, 1) = a(1, 0) = 1e-8;
  return a;
}

/// A near-identity block whose (0, 1) entry sits on the Jacobi skip
/// threshold 1e-14·‖A‖_F/n².  The kernel tables' nrm2 summation orders
/// round ‖A‖_F to different last bits here, so a threshold taken from the
/// dispatched nrm2 would skip the rotation at one ISA and apply it at
/// another, moving the eigenvalue's last bits.
DenseMatrix threshold_block() {
  return DenseMatrix(
      3, 3,
      {0x1.fffffff1a8e1dp-1, 0x1.15598d13617a7p-49, 0x1.426a347623a52p-28,
       0x1.15598d13617a7p-49, 0x1.00000004434fp+0, 0x1.1d83e940df303p-27,
       0x1.426a347623a52p-28, 0x1.1d83e940df303p-27, 0x1.00000008db7fap+0});
}

/// Restores the entry kernel ISA on scope exit, even after a failed
/// assertion.
class IsaGuard {
 public:
  IsaGuard() : saved_(simd::active_isa()) {}
  ~IsaGuard() { simd::set_kernel_isa(saved_); }

 private:
  simd::Isa saved_;
};

TEST(LargestEigenvalue, DiagonalMatrixLargestEntry) {
  DenseMatrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 7.0;
  a(2, 2) = 3.0;
  EXPECT_NEAR(largest_of(a), 7.0, 1e-10);
}

TEST(LargestEigenvalue, OneByOneIsTheEntry) {
  DenseMatrix a(1, 1);
  a(0, 0) = 4.25;
  EXPECT_EQ(largest_of(a), 4.25);
}

TEST(LargestEigenvalue, EmptyMatrixIsZero) {
  EXPECT_EQ(largest_of(DenseMatrix()), 0.0);
}

TEST(LargestEigenvalue, ZeroMatrixIsExactlyZero) {
  // The solvers skip a block on v == 0.0, so a zero block must give
  // exactly +0.0, not a tiny residue.
  const double v = largest_of(DenseMatrix(4, 4));
  EXPECT_EQ(v, 0.0);
  EXPECT_FALSE(std::signbit(v));
}

TEST(LargestEigenvalue, RejectsNonSquare) {
  DenseMatrix a(2, 3);
  EXPECT_THROW(largest_eigenvalue_psd(a), PreconditionError);
}

TEST(LargestEigenvalue, KnownTwoByTwo) {
  // [[2, 1], [1, 2]] has eigenvalues {1, 3}.
  EXPECT_NEAR(largest_of(DenseMatrix(2, 2, {2.0, 1.0, 1.0, 2.0})), 3.0,
              1e-10);
}

TEST(LargestEigenvalue, ClusteredLeadingPair) {
  // Eigenvalues of the leading 2×2: 5 − 5e-15 ± sqrt(2.5e-29 + 1e-16).
  EXPECT_NEAR(largest_of(clustered_block()), 5.0 + 1e-8, 1e-12);
}

TEST(LargestEigenvalue, OverwritesItsArgument) {
  DenseMatrix a(2, 2, {2.0, 1.0, 1.0, 2.0});
  const double v = largest_eigenvalue_psd(a);
  EXPECT_EQ(v, std::max(a(0, 0), a(1, 1)));  // the rotated diagonal
  EXPECT_LT(std::abs(a(0, 1)), 1e-14);
}

TEST(LargestEigenvalue, BitwiseIdenticalAtEveryIsa) {
  // The step size is a plain scalar sweep: switching the kernel table must
  // not move a single bit of it.
  std::vector<DenseMatrix> blocks;
  for (std::size_t n : {1, 2, 4, 8, 16}) blocks.push_back(sine_gram(n));
  blocks.push_back(clustered_block());
  blocks.push_back(threshold_block());

  const IsaGuard guard;
  ASSERT_TRUE(simd::set_kernel_isa(simd::Isa::kScalar));
  std::vector<double> reference;
  for (const DenseMatrix& g : blocks) reference.push_back(largest_of(g));
  for (simd::Isa isa : {simd::Isa::kSse2, simd::Isa::kAvx2}) {
    if (!simd::isa_available(isa)) continue;
    ASSERT_TRUE(simd::set_kernel_isa(isa));
    for (std::size_t i = 0; i < blocks.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(largest_of(blocks[i])),
                std::bit_cast<std::uint64_t>(reference[i]))
          << "block " << i << " at isa " << static_cast<int>(isa);
  }
}

TEST(Jacobi, DiagonalMatrixSortedSpectrum) {
  DenseMatrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = 1.0;
  a(2, 2) = 2.0;
  const std::vector<double> eig = jacobi_eigenvalues(a);
  ASSERT_EQ(eig.size(), 3u);
  EXPECT_NEAR(eig[0], 1.0, 1e-12);
  EXPECT_NEAR(eig[1], 2.0, 1e-12);
  EXPECT_NEAR(eig[2], 3.0, 1e-12);
}

TEST(Jacobi, KnownTwoByTwoSpectrum) {
  DenseMatrix a(2, 2, {2.0, 1.0, 1.0, 2.0});
  const std::vector<double> eig = jacobi_eigenvalues(a);
  EXPECT_NEAR(eig[0], 1.0, 1e-12);
  EXPECT_NEAR(eig[1], 3.0, 1e-12);
}

TEST(Jacobi, TraceAndFrobeniusInvariants) {
  DenseMatrix a(4, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      a(i, j) = 1.0 / (1.0 + static_cast<double>(i + j));  // Hilbert-like
  const std::vector<double> eig = jacobi_eigenvalues(a);
  double trace = 0.0, frob_sq = 0.0, eig_sum = 0.0, eig_sq = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    trace += a(i, i);
    for (std::size_t j = 0; j < 4; ++j) frob_sq += a(i, j) * a(i, j);
  }
  for (double e : eig) {
    eig_sum += e;
    eig_sq += e * e;
  }
  EXPECT_NEAR(trace, eig_sum, 1e-10);
  EXPECT_NEAR(frob_sq, eig_sq, 1e-10);
}

TEST(Jacobi, EmptyMatrixGivesEmptySpectrum) {
  EXPECT_TRUE(jacobi_eigenvalues(DenseMatrix()).empty());
}

/// The in-place entry point is bitwise the top of jacobi_eigenvalues'
/// sorted spectrum across a sweep of PSD matrices G = BᵀB.
class EigenAgreementSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenAgreementSweep, InPlaceIsBitwiseJacobiSpectrumTop) {
  const DenseMatrix g = sine_gram(GetParam());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(largest_of(g)),
            std::bit_cast<std::uint64_t>(jacobi_eigenvalues(g).back()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenAgreementSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 24));

}  // namespace
}  // namespace sa::la
