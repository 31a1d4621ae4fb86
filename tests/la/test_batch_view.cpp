// Zero-copy view tests: the Gram and dot kernels over views built by
// RowBlock::view_columns / ColBlock::view_rows must match a naive
// Gram/dots computed from the dataset's dense matrix, on both storage
// kinds (sparse CSC/CSR views and densified staging), for both solver
// modes (accelerated = two dot sections, plain = one), over the full
// range and over the chunk grids the fixed reduction grouping uses — where
// every chunk's partial must also be bitwise the one-chunk call on that
// chunk, at every available ISA.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/detail.hpp"
#include "core/local_data.hpp"
#include "data/rng.hpp"
#include "data/synthetic.hpp"
#include "la/batch_view.hpp"
#include "la/dense.hpp"
#include "la/simd/simd.hpp"
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

/// The chunked kernels over the grid `bounds`: every chunk's Gram
/// blocks, then every chunk's dot blocks.
std::vector<double> chunk_kernels(const BatchView& view,
                                  std::span<const std::vector<double>> rhs,
                                  std::span<const std::size_t> bounds) {
  const std::size_t k = view.size();
  const std::size_t n = bounds.size() - 1;
  const std::size_t tri = n * core::detail::triangle_size(k);
  std::vector<std::span<const double>> xs(rhs.begin(), rhs.end());
  std::vector<double> out(tri + n * xs.size() * k);
  sampled_gram_range(view, bounds, std::span<double>(out.data(), tri));
  sampled_dots_range(view, xs, bounds,
                     std::span<double>(out.data() + tri, n * xs.size() * k));
  return out;
}

/// The one-chunk kernels over [begin, end): Gram section, then dot
/// sections.
std::vector<double> range_kernels(const BatchView& view,
                                  std::span<const std::vector<double>> rhs,
                                  std::size_t begin, std::size_t end) {
  const std::size_t bounds[2] = {begin, end};
  return chunk_kernels(view, rhs, bounds);
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
  Workspace ws;
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
      expect_near_all(range_kernels(view, xs, 0, m),
                      naive_columns(a, cols, xs, 0, m), "full range");
    }
  }
}

/// k hand-built members of length m — sparse storage (every fourth member
/// empty, the rest about one nonzero in five) or dense rows (every fourth
/// member all zero) — plus the m × k dense matrix they came from.
class Members {
 public:
  Members(std::size_t k, std::size_t m, bool dense, std::uint64_t seed)
      : a_(m, k), idx_(k), val_(k), rows_(k) {
    data::SplitMix64 rng(seed);
    for (std::size_t i = 0; i < k; ++i) {
      if (i % 4 == 1) continue;
      for (std::size_t r = 0; r < m; ++r)
        if (dense || rng.next_below(5) == 0) a_(r, i) = rng.next_normal();
    }
    dense_ = DenseMatrix(a_.transposed());
    for (std::size_t i = 0; i < k; ++i) {
      rows_[i] = dense_.row(i).data();
      for (std::size_t r = 0; r < m; ++r) {
        if (a_(r, i) == 0.0) continue;
        idx_[i].push_back(r);
        val_[i].push_back(a_(r, i));
      }
    }
    idx_spans_.assign(idx_.begin(), idx_.end());
    val_spans_.assign(val_.begin(), val_.end());
    view_ = dense ? BatchView::dense(rows_, m)
                  : BatchView::sparse(idx_spans_, val_spans_, m);
  }
  Members(const Members&) = delete;
  Members& operator=(const Members&) = delete;

  const DenseMatrix& matrix() const { return a_; }
  const BatchView& view() const { return view_; }

  /// The members narrowed to [b, e) by hand, as the one-chunk input the
  /// oracle runs on: dense rows shifted to b (dimension e − b), sparse
  /// members cut to their in-range nonzeros (absolute indices, full
  /// dimension).
  BatchView narrowed(std::size_t b, std::size_t e) {
    const std::size_t k = rows_.size();
    if (view_.is_dense()) {
      shifted_.resize(k);
      for (std::size_t i = 0; i < k; ++i) shifted_[i] = rows_[i] + b;
      return BatchView::dense(shifted_, e - b);
    }
    cut_idx_.resize(k);
    cut_val_.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
      const auto lo = std::lower_bound(idx_[i].begin(), idx_[i].end(), b);
      const auto hi = std::lower_bound(lo, idx_[i].end(), e);
      const std::size_t first = static_cast<std::size_t>(lo - idx_[i].begin());
      const std::size_t count = static_cast<std::size_t>(hi - lo);
      cut_idx_[i] = std::span<const std::size_t>(idx_[i]).subspan(first, count);
      cut_val_[i] = std::span<const double>(val_[i]).subspan(first, count);
    }
    return BatchView::sparse(cut_idx_, cut_val_, view_.dim());
  }

  /// A nonzero position of member 0 near fraction `f` of its nonzeros.
  std::size_t nonzero_near(double f) const {
    const std::vector<std::size_t>& idx = idx_[0];
    const double last = static_cast<double>(idx.size() - 1);
    return idx[static_cast<std::size_t>(f * last)];
  }

 private:
  DenseMatrix a_;
  DenseMatrix dense_;
  std::vector<std::vector<std::size_t>> idx_;
  std::vector<std::vector<double>> val_;
  std::vector<const double*> rows_;
  std::vector<std::span<const std::size_t>> idx_spans_;
  std::vector<std::span<const double>> val_spans_;
  std::vector<const double*> shifted_;
  std::vector<std::span<const std::size_t>> cut_idx_;
  std::vector<std::span<const double>> cut_val_;
  BatchView view_;
};

/// G + 1 monotone chunk boundaries in [0, m]: random picks, a quarter of
/// them on member 0's nonzeros, with an empty chunk forced at the front
/// (G ≥ 2) and the full range [0, m] covered for even seeds (the grids
/// the grouping builds).
std::vector<std::size_t> chunk_bounds(std::size_t g, std::size_t m,
                                      const Members& members,
                                      std::uint64_t seed) {
  data::SplitMix64 rng(seed);
  std::vector<std::size_t> bounds(g + 1);
  for (std::size_t c = 0; c <= g; ++c)
    bounds[c] = c % 4 == 2
                    ? members.nonzero_near(static_cast<double>(c) /
                                           static_cast<double>(g + 1))
                    : static_cast<std::size_t>(rng.next_below(m + 1));
  std::sort(bounds.begin(), bounds.end());
  if (g >= 2) bounds[1] = bounds[0];
  if (seed % 2 == 0) {
    bounds.front() = 0;
    bounds.back() = m;
  }
  return bounds;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The fixed reduction grouping writes every owned chunk's partial in one
// call per section.  At every available ISA, each chunk's block must be
// bitwise the one-chunk call on that chunk's hand-narrowed members (what
// a single-range call computes, whichever chunks share the call) and
// near the naive partial over the chunk.  The goldens pin the scalar
// table only, so this is where SIMD bits meet an independent oracle.
// The engines' own views (CSC spans or the dense stage, with a duplicated
// column) run the regular grids the grouping builds, one chunked call per
// grid, against the naive partial and the one-chunk call per chunk.
TEST_P(StoragePairSweep, RangeRestrictionMatchesNaivePartial) {
  const bool dense = GetParam() > 0.1;
  const std::size_t m = 120;
  const std::array<std::vector<double>, 2> rhs{random_vector(m, 21),
                                               random_vector(m, 22)};
  const data::Dataset d = make_dataset(GetParam(), 31);
  const DenseMatrix a = d.a.to_dense();
  const core::RowBlock block(
      d, data::Partition::block(d.num_points(), 1), 0);
  ASSERT_EQ(block.local_rows(), m);
  const std::vector<std::size_t> block_cols{3, 9, 9, 40, 17, 63, 0, 22};
  Workspace ws;
  const BatchView block_view = block.view_columns(block_cols, ws);
  const simd::Isa entry = simd::active_isa();
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2}) {
    if (!simd::isa_available(isa)) continue;
    ASSERT_TRUE(simd::set_kernel_isa(isa));
    // The sparse kernels write an empty segment's +0.0 without a gather:
    // exactly what both gather orders return for n = 0.
    for (const auto gather :
         {simd::active().gather_dot, simd::active().gather_dot2}) {
      const double zero = gather(nullptr, nullptr, 0, rhs[0].data());
      EXPECT_TRUE(same_bits(std::span(&zero, 1), std::array{0.0}));
    }
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{50}, m}) {
      SCOPED_TRACE(::testing::Message() << simd::to_cstring(isa)
                                        << " view_columns chunk=" << chunk);
      std::vector<std::size_t> bounds{0};
      while (bounds.back() < m)
        bounds.push_back(std::min(m, bounds.back() + chunk));
      const std::vector<double> fused =
          chunk_kernels(block_view, rhs, bounds);
      const std::size_t k = block_cols.size();
      const std::size_t tri = core::detail::triangle_size(k);
      const std::size_t g = bounds.size() - 1;
      for (std::size_t c = 0; c < g; ++c) {
        const std::size_t b = bounds[c];
        const std::size_t e = bounds[c + 1];
        std::vector<double> got(fused.begin() + c * tri,
                                fused.begin() + (c + 1) * tri);
        got.insert(got.end(), fused.begin() + g * tri + c * 2 * k,
                   fused.begin() + g * tri + (c + 1) * 2 * k);
        EXPECT_TRUE(same_bits(got, range_kernels(block_view, rhs, b, e)))
            << "chunk " << c << " [" << b << ", " << e << ")";
        expect_near_all(got, naive_columns(a, block_cols, rhs, b, e),
                        "chunk vs naive");
      }
    }
    for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                                std::size_t{64}}) {
      Members members(k, m, dense, 31 + k);
      std::vector<std::size_t> cols(k);
      for (std::size_t i = 0; i < k; ++i) cols[i] = i;
      const std::size_t tri = core::detail::triangle_size(k);
      for (const std::size_t g : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{63},
                                  std::size_t{64}}) {
        for (const std::uint64_t seed : {g, g + 1}) {
          SCOPED_TRACE(::testing::Message()
                       << simd::to_cstring(isa) << " k=" << k << " G=" << g
                       << " seed=" << seed);
          const std::vector<std::size_t> bounds =
              chunk_bounds(g, m, members, seed);
          const std::vector<double> fused =
              chunk_kernels(members.view(), rhs, bounds);
          const std::span<const double> grams(fused.data(), g * tri);
          const std::span<const double> dots(fused.data() + g * tri,
                                             g * 2 * k);
          for (std::size_t c = 0; c < g; ++c) {
            const std::size_t b = bounds[c];
            const std::size_t e = bounds[c + 1];
            const BatchView one = members.narrowed(b, e);
            // Dense chunks are views of depth e − b over the cut
            // right-hand sides; sparse ones keep absolute indices.
            std::vector<double> want;
            if (dense) {
              const std::array<std::vector<double>, 2> cut{
                  std::vector<double>(rhs[0].begin() + b, rhs[0].begin() + e),
                  std::vector<double>(rhs[1].begin() + b, rhs[1].begin() + e)};
              want = range_kernels(one, cut, 0, e - b);
            } else {
              want = range_kernels(one, rhs, 0, m);
            }
            EXPECT_TRUE(same_bits(grams.subspan(c * tri, tri),
                                  std::span(want).first(tri)))
                << "Gram of chunk " << c << " [" << b << ", " << e << ")";
            EXPECT_TRUE(same_bits(dots.subspan(c * 2 * k, 2 * k),
                                  std::span(want).subspan(tri)))
                << "dots of chunk " << c << " [" << b << ", " << e << ")";
            std::vector<double> got(grams.begin() + c * tri,
                                    grams.begin() + (c + 1) * tri);
            got.insert(got.end(), dots.begin() + c * 2 * k,
                       dots.begin() + (c + 1) * 2 * k);
            expect_near_all(got,
                            naive_columns(members.matrix(), cols, rhs, b, e),
                            "chunk vs naive");
          }
          // The single-range Gram form is the one-chunk case.
          Workspace unused;
          std::vector<double> single(tri);
          sampled_gram_range(members.view(), bounds[g - 1], bounds[g], unused,
                             single);
          EXPECT_TRUE(same_bits(single, grams.subspan((g - 1) * tri, tri)));
        }
      }
    }
  }
  simd::set_kernel_isa(entry);
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

    Workspace ws;
    const BatchView view = block.view_rows(rows, ws);
    expect_near_all(range_kernels(view, rhs, 0, block.local_cols()),
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
  Workspace ws;
  const std::vector<std::size_t> cols{0, 1, 2};
  const BatchView view = block.view_columns(cols, ws);
  const std::vector<double> empty_rhs;  // dim 0
  const std::array<std::span<const double>, 1> xs{
      std::span<const double>(empty_rhs)};
  std::vector<double> out(fused_buffer_size(3, 1), 99.0);
  const std::size_t tri = core::detail::triangle_size(3);
  const std::size_t empty[2] = {0, 0};
  sampled_gram_range(view, empty, std::span<double>(out.data(), tri));
  sampled_dots_range(view, xs, empty, std::span<double>(out.data() + tri, 3));
  for (const double v : out) EXPECT_EQ(v, 0.0);
}

TEST(Workspace, SteadyStateReservationIsStable) {
  const data::Dataset d = make_dataset(0.05, 41);
  const core::RowBlock block(
      d, data::Partition::block(d.num_points(), 1), 0);
  Workspace ws;
  const std::vector<std::size_t> cols{4, 8, 15, 16, 23, 42};
  const std::array<std::vector<double>, 1> rhs{
      random_vector(block.local_rows(), 3)};

  std::vector<double> out;
  auto run_once = [&] {
    const BatchView view = block.view_columns(cols, ws);
    out = range_kernels(view, rhs, 0, block.local_rows());
  };
  run_once();
  const std::size_t after_first = ws.bytes_reserved();
  const std::vector<double> first = out;
  for (int round = 0; round < 10; ++round) run_once();
  EXPECT_EQ(ws.bytes_reserved(), after_first);
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
