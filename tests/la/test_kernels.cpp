// Kernel-parity tests: the blocked/parallel Gram and dot kernels
// (sampled_gram_range / sampled_dots_range over the full range) and spmv
// must agree with naive reference implementations on random dense and
// sparse inputs, including the degenerate shapes (k = 1, empty batches,
// all-zero rows) the solvers hit on ultra-sparse data.
#include <array>
#include <cmath>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "data/rng.hpp"
#include "la/batch_view.hpp"
#include "la/csr.hpp"
#include "la/dense.hpp"
#include "la/vector_ops.hpp"
#include "la/workspace.hpp"

namespace sa::la {
namespace {

constexpr double kTol = 1e-12;

DenseMatrix random_dense(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  data::SplitMix64 rng(seed);
  DenseMatrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) a(i, j) = rng.next_normal();
  return a;
}

/// One sparse member: strictly increasing indices and their values.
struct SparseMember {
  std::vector<std::size_t> indices;
  std::vector<double> values;
};

std::vector<SparseMember> random_sparse(std::size_t count, std::size_t dim,
                                        double density, std::uint64_t seed) {
  data::SplitMix64 rng(seed);
  std::vector<SparseMember> vs(count);
  for (SparseMember& v : vs) {
    for (std::size_t i = 0; i < dim; ++i) {
      if (rng.next_double() < density) {
        v.indices.push_back(i);
        v.values.push_back(rng.next_normal());
      }
    }
  }
  return vs;
}

/// Owns a batch's members (dense rows or sparse vectors) and exposes them
/// as a BatchView.  Pinned in place: the view's descriptors point into it.
class Batch {
 public:
  explicit Batch(DenseMatrix rows) : dense_(std::move(rows)) {
    for (std::size_t i = 0; i < dense_.rows(); ++i)
      ptrs_.push_back(dense_.row(i).data());
    view_ = BatchView::dense(ptrs_, dense_.cols());
  }
  Batch(std::vector<SparseMember> members, std::size_t dim)
      : sparse_(std::move(members)) {
    for (const SparseMember& v : sparse_) {
      idx_.emplace_back(v.indices);
      val_.emplace_back(v.values);
    }
    view_ = BatchView::sparse(idx_, val_, dim);
  }
  Batch(const Batch&) = delete;
  Batch& operator=(const Batch&) = delete;

  const BatchView& view() const { return view_; }
  std::size_t size() const { return view_.size(); }
  std::size_t dim() const { return view_.dim(); }

  /// Member i as a dense vector of length dim().
  std::vector<double> member(std::size_t i) const {
    if (view_.is_dense()) {
      const std::span<const double> r = dense_.row(i);
      return {r.begin(), r.end()};
    }
    std::vector<double> v(dim(), 0.0);
    for (std::size_t p = 0; p < sparse_[i].indices.size(); ++p)
      v[sparse_[i].indices[p]] = sparse_[i].values[p];
    return v;
  }

 private:
  DenseMatrix dense_;
  std::vector<const double*> ptrs_;
  std::vector<SparseMember> sparse_;
  std::vector<std::span<const std::size_t>> idx_;
  std::vector<std::span<const double>> val_;
  BatchView view_;
};

/// The Gram kernel over the full range, unpacked to a symmetric matrix.
DenseMatrix gram(const Batch& b) {
  const std::size_t k = b.size();
  const std::size_t whole[2] = {0, b.dim()};
  std::vector<double> packed(fused_buffer_size(k, 0));
  sampled_gram_range(b.view(), whole, packed);
  DenseMatrix g(k, k);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = i; j < k; ++j)
      g(i, j) = g(j, i) = packed[packed_upper_index(i, j, k)];
  return g;
}

/// The dot kernel over the full range: [v_0·x, …, v_{k-1}·x].
std::vector<double> dots(const Batch& b, std::span<const double> x) {
  const std::size_t whole[2] = {0, b.dim()};
  std::vector<double> out(b.size());
  const std::array<std::span<const double>, 1> xs{x};
  sampled_dots_range(b.view(), xs, whole, out);
  return out;
}

/// Reference Gram: plain pairwise dots, strict left-to-right accumulation.
DenseMatrix reference_gram(const Batch& b) {
  const std::size_t k = b.size();
  DenseMatrix g(k, k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const std::vector<double> vi = b.member(i);
      const std::vector<double> vj = b.member(j);
      double acc = 0.0;
      for (std::size_t p = 0; p < vi.size(); ++p) acc += vi[p] * vj[p];
      g(i, j) = acc;
    }
  }
  return g;
}

class DenseGramSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DenseGramSweep, BlockedMatchesReference) {
  // Sizes straddle the 4×4 micro-kernel and the 32-wide tile edges.
  const std::size_t k = GetParam();
  const Batch b(random_dense(k, 173, 7 + k));
  EXPECT_LT(gram(b).max_abs_diff(reference_gram(b)),
            kTol * static_cast<double>(b.dim()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, DenseGramSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 31, 32, 33,
                                           63, 64, 65, 100));

TEST(DenseGram, LargeEnoughToTakeParallelPath) {
  // 128 vectors × 1024 dims crosses the OpenMP work threshold.
  const Batch b(random_dense(128, 1024, 99));
  EXPECT_LT(gram(b).max_abs_diff(reference_gram(b)), kTol * 1024);
}

class SparseGramSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SparseGramSweep, AccumulatorMatchesReference) {
  const std::size_t k = GetParam();
  const Batch b(random_sparse(k, 211, 0.15, 11 + k), 211);
  EXPECT_LT(gram(b).max_abs_diff(reference_gram(b)), kTol * 211);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseGramSweep,
                         ::testing::Values(1, 2, 5, 16, 33, 80));

TEST(SparseGram, EmptyBatchAndEmptyMembers) {
  EXPECT_EQ(gram(Batch({}, 64)).rows(), 0u);
  // Members with zero nonzeros must produce exact zero rows/columns.
  std::vector<SparseMember> vs = random_sparse(4, 90, 0.2, 5);
  vs[1].indices.clear();
  vs[1].values.clear();
  const Batch b(vs, 90);
  const DenseMatrix g = gram(b);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(g(1, j), 0.0);
    EXPECT_EQ(g(j, 1), 0.0);
  }
  EXPECT_LT(g.max_abs_diff(reference_gram(b)), kTol * 90);
}

TEST(SparseGram, DenseAndSparseStorageAgree) {
  const Batch sp(random_sparse(24, 130, 0.3, 21), 130);
  DenseMatrix rows(24, 130);
  for (std::size_t i = 0; i < 24; ++i) la::copy(sp.member(i), rows.row(i));
  const Batch dn(std::move(rows));
  EXPECT_LT(gram(sp).max_abs_diff(gram(dn)), kTol * 130);
}

TEST(Dots, MatchesMemberwiseDots) {
  for (const std::size_t k : {std::size_t{1}, std::size_t{6},
                              std::size_t{200}}) {
    const Batch b(random_dense(k, 301, k));
    data::SplitMix64 rng(77);
    std::vector<double> x(301);
    for (double& v : x) v = rng.next_normal();
    const std::vector<double> got = dots(b, x);
    ASSERT_EQ(got.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      double want = 0.0;
      const std::vector<double> vi = b.member(i);
      for (std::size_t p = 0; p < vi.size(); ++p) want += vi[p] * x[p];
      EXPECT_NEAR(got[i], want, kTol * 301);
    }
  }
}

TEST(Dots, SparseMatchesGatherReference) {
  const std::vector<SparseMember> vs = random_sparse(40, 256, 0.1, 31);
  const Batch sp(vs, 256);
  data::SplitMix64 rng(13);
  std::vector<double> x(256);
  for (double& v : x) v = rng.next_normal();
  const std::vector<double> got = dots(sp, x);
  for (std::size_t i = 0; i < 40; ++i) {
    double want = 0.0;
    for (std::size_t p = 0; p < vs[i].indices.size(); ++p)
      want += vs[i].values[p] * x[vs[i].indices[p]];
    EXPECT_NEAR(got[i], want, kTol * 256);
  }
}

TEST(Spmv, MatchesReferenceOnRandomSparse) {
  data::SplitMix64 rng(41);
  std::vector<Triplet> trips;
  const std::size_t m = 700, n = 300;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (rng.next_double() < 0.05)
        trips.push_back({i, j, rng.next_normal()});
  const CsrMatrix a = CsrMatrix::from_triplets(m, n, trips);
  std::vector<double> x(n);
  for (double& v : x) v = rng.next_normal();

  std::vector<double> got(m);
  a.spmv(x, got);

  for (std::size_t i = 0; i < m; ++i) {
    double want = 0.0;
    const auto idx = a.row_indices(i);
    const auto val = a.row_values(i);
    for (std::size_t p = 0; p < idx.size(); ++p) want += val[p] * x[idx[p]];
    EXPECT_NEAR(got[i], want, kTol * static_cast<double>(n));
  }
}

TEST(Spmv, EmptyRowsProduceExactZeros) {
  // Rows 1 and 3 have no entries.
  const CsrMatrix a = CsrMatrix::from_triplets(
      4, 5, {{0, 1, 2.0}, {2, 0, -1.0}, {2, 4, 3.0}});
  std::vector<double> x{1, 1, 1, 1, 1};
  std::vector<double> y(4, 99.0);
  a.spmv(x, y);
  EXPECT_EQ(y[1], 0.0);
  EXPECT_EQ(y[3], 0.0);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
}

TEST(UnrolledOps, MatchStrictLoops) {
  data::SplitMix64 rng(59);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{4}, std::size_t{257}}) {
    std::vector<double> x(n), y(n);
    for (double& v : x) v = rng.next_normal();
    for (double& v : y) v = rng.next_normal();
    double sdot = 0.0, snrm = 0.0, ssum = 0.0, sasum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sdot += x[i] * y[i];
      snrm += x[i] * x[i];
      ssum += x[i];
      sasum += std::abs(x[i]);
    }
    EXPECT_NEAR(dot(x, y), sdot, kTol * std::max<std::size_t>(n, 1));
    EXPECT_NEAR(nrm2_squared(x), snrm, kTol * std::max<std::size_t>(n, 1));
    EXPECT_NEAR(sum(x), ssum, kTol * std::max<std::size_t>(n, 1));
    EXPECT_NEAR(asum(x), sasum, kTol * std::max<std::size_t>(n, 1));

    std::vector<double> want = y;
    for (std::size_t i = 0; i < n; ++i) want[i] += 0.7 * x[i];
    std::vector<double> got = y;
    axpy(0.7, x, got);
    for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(got[i], want[i]);
  }
}

TEST(GramFlops, SparseFormulaMatchesAccumulatorModel) {
  // flops = Σ_j 2·(j+1)·nnz_j: every pair (i ≤ j, j) gathers through v_j.
  std::vector<SparseMember> vs;
  vs.push_back({{0, 2, 4}, {1, 1, 1}});        // nnz 3
  vs.push_back({{1}, {1}});                    // nnz 1
  vs.push_back({{0, 1, 2, 3, 4}, {1, 1, 1, 1, 1}});  // nnz 5
  const Batch b(std::move(vs), 8);
  EXPECT_EQ(b.view().gram_flops(), 2u * (1 * 3 + 2 * 1 + 3 * 5));
}

}  // namespace
}  // namespace sa::la
