// Zero-copy view tests: the Gram and dot kernels over views built by
// RowBlock::view_columns / ColBlock::view_rows must match a naive
// Gram/dots computed from the dataset's dense matrix, on both storage
// kinds (sparse CSC/CSR views and densified staging), for both solver
// modes (accelerated = two dot sections, plain = one), over the full
// range and over the sub-ranges the fixed reduction grouping uses.
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/detail.hpp"
#include "core/local_data.hpp"
#include "data/rng.hpp"
#include "data/synthetic.hpp"
#include "la/batch_view.hpp"
#include "la/dense.hpp"
#include "la/workspace.hpp"

namespace sa::la {
namespace {

constexpr double kTol = 1e-12;

data::Dataset make_dataset(double density, std::uint64_t seed) {
  data::RegressionConfig cfg;
  cfg.num_points = 120;
  cfg.num_features = 64;
  cfg.density = density;
  cfg.support_size = 8;
  cfg.seed = seed;
  return data::make_regression(cfg).dataset;
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  data::SplitMix64 rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.next_normal();
  return v;
}

/// Naive reference for sampled columns of `a` over rows [begin, end):
/// [upper(G) | Yᵀx₀ | Yᵀx₁ | …] with G_ij = Σ_r a(r, c_i)·a(r, c_j) and
/// (Yᵀx)_i = Σ_r a(r, c_i)·x_r, accumulated left to right.
std::vector<double> naive_columns(const DenseMatrix& a,
                                  std::span<const std::size_t> cols,
                                  std::span<const std::vector<double>> rhs,
                                  std::size_t begin, std::size_t end) {
  const std::size_t k = cols.size();
  std::vector<double> out(fused_buffer_size(k, rhs.size()));
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i; j < k; ++j) {
      double acc = 0.0;
      for (std::size_t r = begin; r < end; ++r)
        acc += a(r, cols[i]) * a(r, cols[j]);
      out[packed_upper_index(i, j, k)] = acc;
    }
    for (std::size_t sct = 0; sct < rhs.size(); ++sct) {
      double acc = 0.0;
      for (std::size_t r = begin; r < end; ++r)
        acc += a(r, cols[i]) * rhs[sct][r];
      out[core::detail::triangle_size(k) + sct * k + i] = acc;
    }
  }
  return out;
}

/// The range kernels over [begin, end): Gram section, then dot sections.
std::vector<double> range_kernels(const BatchView& view,
                                  std::span<const std::vector<double>> rhs,
                                  std::size_t begin, std::size_t end,
                                  Workspace& scratch) {
  const std::size_t k = view.size();
  const std::size_t tri = core::detail::triangle_size(k);
  std::vector<std::span<const double>> xs(rhs.begin(), rhs.end());
  std::vector<double> out(fused_buffer_size(k, xs.size()));
  sampled_gram_range(view, begin, end, scratch,
                     std::span<double>(out.data(), tri));
  sampled_dots_range(view, xs, begin, end, scratch,
                     std::span<double>(out.data() + tri, xs.size() * k));
  return out;
}

void expect_near_all(const std::vector<double>& got,
                     const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_NEAR(got[i], want[i], kTol * std::max(1.0, std::abs(want[i])))
        << what << " entry " << i;
}

class StoragePairSweep : public ::testing::TestWithParam<double> {};

TEST_P(StoragePairSweep, FullRangeKernelsMatchNaiveReference) {
  // density 0.05 → sparse CSC views; 0.5 → densified staging views.
  const data::Dataset d = make_dataset(GetParam(), 31);
  const DenseMatrix a = d.a.to_dense();
  const core::RowBlock block(
      d, data::Partition::block(d.num_points(), 1), 0);
  const std::size_t m = block.local_rows();

  data::CoordinateSampler sampler(d.num_features(), 4, 7);
  Workspace ws, scratch;
  for (const std::size_t blocks : {std::size_t{1}, std::size_t{3},
                                   std::size_t{8}}) {
    std::vector<std::size_t> cols(blocks * 4);
    for (std::size_t t = 0; t < blocks; ++t)
      sampler.next_into(std::span<std::size_t>(cols).subspan(t * 4, 4));

    // Accelerated mode: two right-hand sides; plain mode: one.
    const std::array<std::vector<double>, 2> rhs{random_vector(m, 11),
                                                 random_vector(m, 12)};
    for (const std::size_t sections : {std::size_t{2}, std::size_t{1}}) {
      const std::span<const std::vector<double>> xs(rhs.data(), sections);
      const BatchView view = block.view_columns(cols, ws);
      expect_near_all(range_kernels(view, xs, 0, m, scratch),
                      naive_columns(a, cols, xs, 0, m), "full range");
    }
  }
}

// The fixed reduction grouping packs one partial per global chunk: each
// [begin, end) restriction must equal the naive partial over those rows.
TEST_P(StoragePairSweep, RangeRestrictionMatchesNaivePartial) {
  const data::Dataset d = make_dataset(GetParam(), 31);
  const DenseMatrix a = d.a.to_dense();
  const core::RowBlock block(
      d, data::Partition::block(d.num_points(), 1), 0);
  const std::size_t m = block.local_rows();
  const std::vector<std::size_t> cols{3, 9, 9, 40, 17, 63, 0, 22};
  const std::array<std::vector<double>, 2> rhs{random_vector(m, 21),
                                               random_vector(m, 22)};
  Workspace ws, scratch;
  const BatchView view = block.view_columns(cols, ws);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{50}, m}) {
    for (std::size_t begin = 0; begin < m; begin += chunk) {
      const std::size_t end = std::min(m, begin + chunk);
      expect_near_all(range_kernels(view, rhs, begin, end, scratch),
                      naive_columns(a, cols, rhs, begin, end), "chunk");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, StoragePairSweep,
                         ::testing::Values(0.05, 0.5));

TEST(BatchView, ColBlockRowViewsMatchNaiveReference) {
  // SVM layout: sampled rows (with replacement, including repeats).
  for (const double density : {0.05, 0.5}) {
    const data::Dataset d = make_dataset(density, 33);
    const DenseMatrix at = d.a.to_dense().transposed();  // rows as columns
    const core::ColBlock block(
        d, data::Partition::block(d.num_features(), 1), 0);
    const std::vector<std::size_t> rows{3, 17, 3, 44, 101, 0};
    const std::array<std::vector<double>, 1> rhs{
        random_vector(block.local_cols(), 5)};

    Workspace ws, scratch;
    const BatchView view = block.view_rows(rows, ws);
    expect_near_all(range_kernels(view, rhs, 0, block.local_cols(), scratch),
                    naive_columns(at, rows, rhs, 0, block.local_cols()),
                    "row view");
  }
}

TEST(BatchView, AddScaledToMatchesNaiveUpdate) {
  for (const double density : {0.05, 0.5}) {
    const data::Dataset d = make_dataset(density, 35);
    const DenseMatrix a = d.a.to_dense();
    const core::RowBlock block(
        d, data::Partition::block(d.num_points(), 1), 0);
    const std::vector<std::size_t> cols{1, 9, 30, 63};
    Workspace ws;
    const BatchView view = block.view_columns(cols, ws);
    ASSERT_EQ(view.size(), cols.size());
    ASSERT_EQ(view.dim(), d.num_points());
    for (std::size_t i = 0; i < view.size(); ++i) {
      std::vector<double> got = random_vector(view.dim(), 100 + i);
      std::vector<double> want = got;
      view.add_scaled_to(i, 0.37, got);
      for (std::size_t r = 0; r < want.size(); ++r)
        if (a(r, cols[i]) != 0.0) want[r] += 0.37 * a(r, cols[i]);
      for (std::size_t r = 0; r < want.size(); ++r)
        EXPECT_EQ(got[r], want[r]) << "member " << i << " row " << r;
    }
  }
}

TEST(BatchView, FlopFormulasMatchMemberCounts) {
  for (const double density : {0.05, 0.5}) {
    const data::Dataset d = make_dataset(density, 37);
    const DenseMatrix a = d.a.to_dense();
    const core::RowBlock block(
        d, data::Partition::block(d.num_points(), 1), 0);
    const std::vector<std::size_t> cols{2, 5, 11, 23, 47};
    Workspace ws;
    const BatchView view = block.view_columns(cols, ws);
    const std::size_t k = cols.size();
    const std::size_t m = d.num_points();
    std::size_t nnz = 0;
    std::size_t sparse_gram = 0;
    for (std::size_t j = 0; j < k; ++j) {
      std::size_t nnz_j = 0;
      for (std::size_t r = 0; r < m; ++r)
        if (a(r, cols[j]) != 0.0) ++nnz_j;
      nnz += nnz_j;
      sparse_gram += 2 * (j + 1) * nnz_j;
      EXPECT_EQ(view.member_nnz(j), view.is_dense() ? m : nnz_j);
    }
    // Dense views count every staged entry; sparse views gather through
    // the nonzeros of the later member of each pair.
    EXPECT_EQ(view.nnz(), view.is_dense() ? k * m : nnz);
    EXPECT_EQ(view.gram_flops(),
              view.is_dense() ? k * (k + 1) * m : sparse_gram);
    EXPECT_EQ(view.dot_all_flops(), 2 * view.nnz());
  }
}

TEST(BatchView, PackedUpperViewPresentsTheSymmetricMatrix) {
  const std::size_t k = 7;
  std::vector<double> packed(core::detail::triangle_size(k));
  for (std::size_t i = 0; i < packed.size(); ++i)
    packed[i] = static_cast<double>(i) * 0.25 - 3.0;
  const core::detail::PackedUpper view(packed.data(), k);
  // Row-major upper triangle, written out by hand.
  std::size_t p = 0;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i; j < k; ++j, ++p) {
      EXPECT_EQ(view(i, j), packed[p]) << i << "," << j;
      EXPECT_EQ(view(j, i), packed[p]) << j << "," << i;
    }
  }
}

TEST(BatchView, EmptyRankBlockProducesZeroSections) {
  // A rank that owns zero rows still participates in the collective: the
  // kernels must emit a fully written all-zero buffer.
  const data::Dataset d = make_dataset(0.05, 39);
  const data::Partition rows({0, d.num_points(), d.num_points()});
  const core::RowBlock block(d, rows, 1);  // rank 1 owns nothing
  ASSERT_EQ(block.local_rows(), 0u);
  Workspace ws, scratch;
  const std::vector<std::size_t> cols{0, 1, 2};
  const BatchView view = block.view_columns(cols, ws);
  const std::vector<double> empty_rhs;  // dim 0
  const std::array<std::span<const double>, 1> xs{
      std::span<const double>(empty_rhs)};
  std::vector<double> out(fused_buffer_size(3, 1), 99.0);
  const std::size_t tri = core::detail::triangle_size(3);
  sampled_gram_range(view, 0, 0, scratch,
                     std::span<double>(out.data(), tri));
  sampled_dots_range(view, xs, 0, 0, scratch,
                     std::span<double>(out.data() + tri, 3));
  for (const double v : out) EXPECT_EQ(v, 0.0);
}

TEST(Workspace, SteadyStateReservationIsStable) {
  const data::Dataset d = make_dataset(0.05, 41);
  const core::RowBlock block(
      d, data::Partition::block(d.num_points(), 1), 0);
  Workspace ws, scratch;
  const std::vector<std::size_t> cols{4, 8, 15, 16, 23, 42};
  const std::array<std::vector<double>, 1> rhs{
      random_vector(block.local_rows(), 3)};

  std::vector<double> out;
  auto run_once = [&] {
    const BatchView view = block.view_columns(cols, ws);
    out = range_kernels(view, rhs, 0, block.local_rows(), scratch);
  };
  run_once();
  const std::size_t after_first = ws.bytes_reserved();
  const std::size_t scratch_after_first = scratch.bytes_reserved();
  const std::vector<double> first = out;
  for (int round = 0; round < 10; ++round) run_once();
  EXPECT_EQ(ws.bytes_reserved(), after_first);
  EXPECT_EQ(scratch.bytes_reserved(), scratch_after_first);
  // Rebuilding the view over the same workspace reproduces the result.
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], first[i]);
}

TEST(RowBlock, ColumnNormsPrecomputedAndCorrect) {
  const data::Dataset d = make_dataset(0.05, 43);
  const DenseMatrix a = d.a.to_dense();
  const core::RowBlock block(
      d, data::Partition::block(d.num_points(), 1), 0);
  const std::vector<double>& norms = block.col_norms_squared();
  ASSERT_EQ(norms.size(), d.num_features());
  for (std::size_t j = 0; j < d.num_features(); ++j) {
    double want = 0.0;
    for (std::size_t r = 0; r < d.num_points(); ++r) want += a(r, j) * a(r, j);
    EXPECT_NEAR(norms[j], want, 1e-12);
  }
}

}  // namespace
}  // namespace sa::la
