// Zero-copy view tests: the Gram and dot kernels over views built by
// RowBlock::view_columns / ColBlock::view_rows must match a naive
// Gram/dots computed from the dataset's dense matrix, on both storage
// kinds (sparse column-CSR/CSR views and densified staging), for both solver
// modes (accelerated = two dot sections, plain = one), over the full
// range and over the chunk grids the fixed reduction grouping uses — where
// every chunk's partial must also be bitwise the one-chunk call on that
// chunk, at every available ISA.  The sparse Gram's support intersection
// must also be bitwise a naive per-(i, j, chunk) gather sweep.  Dense
// batches that repeat a member (DistinctMembers.*) and the batch update
// (BatchUpdate.*) are pinned bitwise against the kernels' plain forms.
// RowBlock's views are pinned bitwise against its former row-slice
// layouts.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/check.hpp"
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
  // density 0.05 → sparse column-CSR views; 0.5 → densified staging views.
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
// The engines' own views (column-CSR spans or the dense stage, with a
// duplicated column) run the regular grids the grouping builds, one
// chunked call per grid, against the naive partial and the one-chunk call
// per chunk.
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

/// Sparse members for the differential Gram test, built to hit every
/// special case of the support intersection inside the range [b, e):
/// member 0 is empty, member 1 has nonzeros only outside [b, e), members
/// 2 and 3 are the same column drawn twice (and 5 repeats 2 again),
/// member 4 stores explicit zeros of both signs beside negative values,
/// and the rest are random at `density`.
class SparseMembers {
 public:
  SparseMembers(std::size_t k, std::size_t m, std::size_t b, std::size_t e,
                double density, std::uint64_t seed)
      : idx_(k), val_(k), idx_spans_(k), val_spans_(k) {
    data::SplitMix64 rng(seed);
    const auto threshold =
        static_cast<std::uint64_t>(density * 1000.0);
    for (std::size_t i = 0; i < k; ++i) {
      if (i == 0 || i == 3 || i == 5) continue;  // empty or a duplicate
      for (std::size_t r = 0; r < m; ++r) {
        if (i == 1 && r >= b && r < e) continue;
        if (rng.next_below(1000) >= threshold) continue;
        idx_[i].push_back(r);
        if (i == 4) {
          const double pick[3] = {0.0, -0.0, -rng.next_double() - 0.5};
          val_[i].push_back(pick[rng.next_below(3)]);
        } else {
          val_[i].push_back(rng.next_normal());
        }
      }
    }
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t from = (i == 3 || i == 5) ? 2 : i;
      idx_spans_[i] = idx_[from];
      val_spans_[i] = val_[from];
    }
    view_ = BatchView::sparse(idx_spans_, val_spans_, m);
  }
  SparseMembers(const SparseMembers&) = delete;
  SparseMembers& operator=(const SparseMembers&) = delete;

  const BatchView& view() const { return view_; }

 private:
  std::vector<std::vector<std::size_t>> idx_;
  std::vector<std::vector<double>> val_;
  std::vector<std::span<const std::size_t>> idx_spans_;
  std::vector<std::span<const double>> val_spans_;
  BatchView view_;
};

/// The per-(i, j, chunk) reference the intersection kernel must match:
/// v_i scattered over the call's range, then one gather_dot2 over v_j's
/// nonzeros in the chunk — +0.0 for an empty segment — for every entry
/// and every chunk.  Chunk-major, like sampled_gram_range.
std::vector<double> naive_chunk_grams(const BatchView& y,
                                      std::span<const std::size_t> bounds) {
  const simd::KernelTable& kt = simd::active();
  const std::size_t k = y.size();
  const std::size_t n = bounds.size() - 1;
  const std::size_t tri = core::detail::triangle_size(k);
  // first[j·(n + 1) + c]: v_j's first nonzero at or past bounds[c].
  std::vector<std::size_t> first(k * (n + 1));
  for (std::size_t j = 0; j < k; ++j) {
    const std::span<const std::size_t> idx = y.member_indices(j);
    for (std::size_t c = 0; c <= n; ++c)
      first[j * (n + 1) + c] = static_cast<std::size_t>(
          std::lower_bound(idx.begin(), idx.end(), bounds[c]) - idx.begin());
  }
  std::vector<double> out(n * tri, 0.0);
  std::vector<double> acc(y.dim(), 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t p = first[i * (n + 1)]; p < first[i * (n + 1) + n]; ++p)
      acc[y.member_indices(i)[p]] = y.member_values(i)[p];
    for (std::size_t j = i; j < k; ++j) {
      for (std::size_t c = 0; c < n; ++c) {
        const std::size_t at = first[j * (n + 1) + c];
        const std::size_t len = first[j * (n + 1) + c + 1] - at;
        if (len == 0) continue;
        out[c * tri + packed_upper_index(i, j, k)] =
            kt.gather_dot2(y.member_values(j).data() + at,
                           y.member_indices(j).data() + at, len, acc.data());
      }
    }
    std::fill(acc.begin(), acc.end(), 0.0);
  }
  return out;
}

// The support-intersection sparse Gram against the per-chunk gather
// reference, bitwise, at every ISA and at one and two OpenMP threads: the
// staged form (sampled_gram_range) and the entry form
// (sampled_gram_entries) must both reproduce every partial, the entry
// form handing each entry over once, in ascending chunk order, and
// leaving out only partials that are +0.0.  The k = 64 configuration is
// above the kernel's OpenMP work threshold, so two threads split it.
TEST(SparseGram, IntersectionMatchesPerChunkGatherReference) {
  const simd::Isa entry_isa = simd::active_isa();
#ifdef _OPENMP
  const int entry_threads = omp_get_max_threads();
#endif
  struct Config {
    std::size_t k, m, b, e;
    double density;
  };
  const Config configs[] = {{8, 120, 0, 120, 0.2},
                            {13, 120, 30, 90, 0.05},
                            {64, 1000, 0, 1000, 0.2},
                            {70, 400, 10, 390, 0.02}};
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2}) {
    if (!simd::isa_available(isa)) continue;
    ASSERT_TRUE(simd::set_kernel_isa(isa));
    for (const int threads : {1, 2}) {
#ifdef _OPENMP
      omp_set_num_threads(threads);
#endif
      for (const Config& cfg : configs) {
        const SparseMembers members(cfg.k, cfg.m, cfg.b, cfg.e, cfg.density,
                                    cfg.k + cfg.m);
        const BatchView& y = members.view();
        const std::size_t tri = core::detail::triangle_size(cfg.k);
        for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                        std::size_t{50}, cfg.m}) {
          // Chunk size 1 on the big configuration would stage 16 MB.
          if (chunk == 1 && cfg.k * cfg.m > 64'000) continue;
          SCOPED_TRACE(::testing::Message()
                       << simd::to_cstring(isa) << " threads=" << threads
                       << " k=" << cfg.k << " range [" << cfg.b << ", "
                       << cfg.e << ") chunk=" << chunk);
          std::vector<std::size_t> bounds{cfg.b};
          while (bounds.back() < cfg.e)
            bounds.push_back(std::min(cfg.e, bounds.back() + chunk));
          const std::size_t n = bounds.size() - 1;
          const std::vector<double> want = naive_chunk_grams(y, bounds);

          std::vector<double> staged(n * tri, 7.0);
          sampled_gram_range(y, bounds, staged);
          EXPECT_TRUE(same_bits(staged, want)) << "staged form";

          std::vector<double> emitted(n * tri, 0.0);
          std::vector<int> calls(tri, 0);
          bool ascending = true;
          const auto sink = [&](std::size_t entry,
                                std::span<const common::ChunkPartial> p) {
            ++calls[entry];  // entries are distinct, so threads never share
            for (std::size_t q = 0; q < p.size(); ++q) {
              emitted[p[q].chunk * tri + entry] = p[q].value;
              if (q > 0 && p[q - 1].chunk >= p[q].chunk) ascending = false;
            }
          };
          sampled_gram_entries(y, bounds, EntrySink(sink));
          EXPECT_TRUE(same_bits(emitted, want)) << "entry form";
          EXPECT_TRUE(ascending);
          for (std::size_t t = 0; t < tri; ++t)
            EXPECT_LE(calls[t], 1) << "entry " << t;
        }
      }
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(entry_threads);
#endif
  simd::set_kernel_isa(entry_isa);
}

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

// A dense ColBlock keeps no CSR slice: its margin chunk partials come from
// the stage and must be bitwise the CSR slice's spmv_col_chunks, at every
// rank of P ∈ {1, 2, 3} on a 7-chunk grid, over whole and partial row
// ranges, with zero, −0.0 and negative entries in x.
TEST(ColBlock, DenseMarginsAreBitwiseTheCsrMargins) {
  const data::Dataset d = make_dataset(0.5, 37);
  const common::ReduceGrouping grouping =
      common::ReduceGrouping::make(d.num_features(), 10);
  for (const int ranks : {1, 2, 3}) {
    const data::Partition cols =
        data::Partition::block(d.num_features(), ranks);
    for (int r = 0; r < ranks; ++r) {
      SCOPED_TRACE(::testing::Message() << "P=" << ranks << " rank " << r);
      const core::ColBlock block(d, cols, r);
      const std::size_t lo = cols.begin(r);
      const std::size_t hi = cols.end(r);
      const la::CsrMatrix slice = d.a.col_slice(lo, hi);
      // The owned chunks' rank-local bounds, as the slotted wire clips them.
      std::vector<std::size_t> bounds{0};
      for (std::size_t c = 0; c < grouping.num_chunks(); ++c)
        if (grouping.end(c) > lo && grouping.begin(c) < hi)
          bounds.push_back(std::min(grouping.end(c), hi) - lo);
      std::vector<double> x = random_vector(block.local_cols(), 38 + r);
      for (std::size_t j = 0; j < x.size(); j += 5) x[j] = 0.0;
      for (std::size_t j = 2; j < x.size(); j += 7) x[j] = -0.0;
      const std::size_t n = bounds.size() - 1;
      for (const auto& [row_begin, row_end] :
           {std::pair<std::size_t, std::size_t>{0, d.num_points()},
            std::pair<std::size_t, std::size_t>{17, 64}}) {
        const std::size_t rows = row_end - row_begin;
        std::vector<double> got(n * rows, 7.0);
        std::vector<double> want(n * rows, 7.0);
        block.margin_chunks(x, bounds, row_begin, row_end, got);
        slice.spmv_col_chunks(x, bounds, row_begin, row_end, want);
        EXPECT_TRUE(same_bits(got, want)) << "rows " << row_begin;
      }
    }
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

/// Dense members over a pool of distinct rows of length m: member i is
/// pool row cols[i], viewed either through the pool's own rows (so
/// repeated columns share a row pointer, as RowBlock::view_columns
/// builds them) or through a private copy per member (every pointer
/// distinct, so no member repeats as far as the kernels can tell).
class PoolMembers {
 public:
  PoolMembers(const DenseMatrix& pool, std::span<const std::size_t> cols)
      : shared_(cols.size()), copies_(cols.size()), copied_(cols.size()) {
    for (std::size_t i = 0; i < cols.size(); ++i) {
      shared_[i] = pool.row(cols[i]).data();
      copies_[i].assign(pool.row(cols[i]).begin(), pool.row(cols[i]).end());
      copied_[i] = copies_[i].data();
    }
    shared_view_ = BatchView::dense(shared_, pool.cols());
    copied_view_ = BatchView::dense(copied_, pool.cols());
  }
  PoolMembers(const PoolMembers&) = delete;
  PoolMembers& operator=(const PoolMembers&) = delete;

  const BatchView& shared() const { return shared_view_; }
  const BatchView& copied() const { return copied_view_; }

 private:
  std::vector<const double*> shared_;
  std::vector<std::vector<double>> copies_;
  std::vector<const double*> copied_;
  BatchView shared_view_;
  BatchView copied_view_;
};

DenseMatrix random_pool(std::size_t rows, std::size_t m, std::uint64_t seed) {
  data::SplitMix64 rng(seed);
  DenseMatrix pool(rows, m);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t p = 0; p < m; ++p) pool(r, p) = rng.next_normal();
  return pool;
}

/// The member → pool-row patterns of the distinct-member tests.
std::vector<std::size_t> repeat_pattern(const char* name, std::size_t k) {
  std::vector<std::size_t> cols(k);
  const std::string_view p(name);
  for (std::size_t i = 0; i < k; ++i) {
    if (p == "absent") cols[i] = i;
    if (p == "adjacent") cols[i] = i % 3 == 1 ? i - 1 : i;
    if (p == "far") cols[i] = i >= k - k / 4 ? k - 1 - i : i;
    if (p == "same") cols[i] = 5;
  }
  if (p == "engine") {
    // The engine's draw on the epsilon twin: s blocks of µ = 8 distinct
    // coordinates out of n = 100, the blocks independent (the last block
    // cut short when 8 ∤ k).
    data::CoordinateSampler sampler(100, 8, k);
    std::vector<std::size_t> block(8);
    for (std::size_t t = 0; t < k; t += 8) {
      sampler.next_into(block);
      for (std::size_t a = 0; a < 8 && t + a < k; ++a) cols[t + a] = block[a];
    }
  }
  return cols;
}

/// ‖v‖₂: Gram entry (i, j)'s tolerance in the k % 4 ≠ 0 case scales
/// with its Cauchy–Schwarz bound ‖v_i‖·‖v_j‖.
double norm_of(std::span<const double> v) {
  double s = 0.0;
  for (const double x : v) s += x * x;
  return std::sqrt(s);
}

// A dense batch that repeats a member has each distinct pair's Gram entry
// and each distinct dot computed once and copied.  Against the same batch
// with every repeat in its own buffer (no repeats visible), the result
// must be bitwise equal whenever k % 4 == 0 — at every kernel table, at
// one and two OpenMP threads, on grids of 1, 7 and 64 chunks — and
// within 1e-13 of the Cauchy–Schwarz scale otherwise (the k-member walk sums
// its ragged-edge entries in another order).  The depth, 1100, spans
// three 512-deep slices with a ragged tail.
TEST(DistinctMembers, GramAndDotsMatchTheBatchWithRepeatsCopied) {
  const simd::Isa entry_isa = simd::active_isa();
#ifdef _OPENMP
  const int entry_threads = omp_get_max_threads();
#endif
  const std::size_t m = 1100;
  const DenseMatrix pool = random_pool(100, m, 77);
  std::vector<double> norms(pool.rows());
  for (std::size_t r = 0; r < pool.rows(); ++r) norms[r] = norm_of(pool.row(r));
  const std::array<std::vector<double>, 2> rhs{random_vector(m, 78),
                                               random_vector(m, 79)};
  const std::vector<std::span<const double>> xs(rhs.begin(), rhs.end());
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2}) {
    if (!simd::isa_available(isa)) continue;
    ASSERT_TRUE(simd::set_kernel_isa(isa));
    for (const int threads : {1, 2}) {
#ifdef _OPENMP
      omp_set_num_threads(threads);
#endif
      for (const std::size_t k : {std::size_t{8}, std::size_t{36},
                                  std::size_t{64}, std::size_t{67}}) {
        for (const char* pattern :
             {"absent", "adjacent", "far", "same", "engine"}) {
          const std::vector<std::size_t> cols = repeat_pattern(pattern, k);
          const PoolMembers members(pool, cols);
          for (const std::size_t g :
               {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
            SCOPED_TRACE(::testing::Message()
                         << simd::to_cstring(isa) << " threads=" << threads
                         << " k=" << k << " " << pattern << " G=" << g);
            std::vector<std::size_t> bounds(g + 1);
            for (std::size_t c = 0; c <= g; ++c) bounds[c] = c * m / g;
            const std::size_t tri = core::detail::triangle_size(k);
            std::vector<double> gram(g * tri, 7.0);
            std::vector<double> want_gram(g * tri, 7.0);
            sampled_gram_range(members.shared(), bounds, gram);
            sampled_gram_range(members.copied(), bounds, want_gram);
            std::vector<double> dots(g * 2 * k, 7.0);
            std::vector<double> want_dots(g * 2 * k, 7.0);
            sampled_dots_range(members.shared(), xs, bounds, dots);
            sampled_dots_range(members.copied(), xs, bounds, want_dots);
            EXPECT_TRUE(same_bits(dots, want_dots)) << "dots";
            if (k % 4 == 0) {
              EXPECT_TRUE(same_bits(gram, want_gram)) << "Gram";
              continue;
            }
            for (std::size_t c = 0; c < g; ++c)
              for (std::size_t i = 0; i < k; ++i)
                for (std::size_t j = i; j < k; ++j) {
                  const std::size_t e = c * tri + packed_upper_index(i, j, k);
                  const double scale = norms[cols[i]] * norms[cols[j]];
                  EXPECT_NEAR(gram[e], want_gram[e], 1e-13 * scale)
                      << "chunk " << c << " entry (" << i << ", " << j << ")";
                }
          }
        }
      }
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(entry_threads);
#endif
  simd::set_kernel_isa(entry_isa);
}

// A rank that owns zero rows views every column at the same (empty)
// stage position, so every member pointer is equal: the distinct path
// must still write a fully +0.0 buffer on every chunk.
TEST(DistinctMembers, ZeroRowRankBlockWithEqualPointersWritesZeros) {
  const data::Dataset d = make_dataset(0.5, 45);
  const data::Partition rows({0, d.num_points(), d.num_points()});
  const core::RowBlock block(d, rows, 1);  // rank 1 owns nothing
  ASSERT_EQ(block.local_rows(), 0u);
  Workspace ws;
  const std::vector<std::size_t> cols{0, 1, 2, 3, 4, 5, 6, 7, 8};
  const BatchView view = block.view_columns(cols, ws);
  ASSERT_TRUE(view.is_dense());
  for (std::size_t i = 1; i < cols.size(); ++i)
    ASSERT_EQ(view.row_pointers()[i], view.row_pointers()[0]);
  const std::vector<double> empty_rhs;
  const std::array<std::span<const double>, 1> xs{
      std::span<const double>(empty_rhs)};
  for (const std::size_t k : {std::size_t{8}, std::size_t{9}}) {
    const BatchView batch = BatchView::dense(view.row_pointers().first(k), 0);
    const std::size_t grid[4] = {0, 0, 0, 0};
    std::vector<double> gram(3 * core::detail::triangle_size(k), 99.0);
    std::vector<double> dots(3 * k, 99.0);
    sampled_gram_range(batch, grid, gram);
    sampled_dots_range(batch, xs, grid, dots);
    for (const double v : gram) EXPECT_TRUE(v == 0.0 && !std::signbit(v));
    for (const double v : dots) EXPECT_TRUE(v == 0.0 && !std::signbit(v));
  }
}

/// The per-member oracle of the batch update: add_scaled_to per listed
/// member, in list order.
std::vector<double> per_member_update(const BatchView& view,
                                      std::span<const std::size_t> members,
                                      std::span<const double> coeffs,
                                      std::vector<double> target) {
  for (std::size_t q = 0; q < members.size(); ++q)
    view.add_scaled_to(members[q], coeffs[q], target);
  return target;
}

// The batch update must be bitwise the per-member add_scaled_to sequence
// at OpenMP team sizes 1, 2 and 4 and at every kernel table: members
// listed out of order and twice, +0.0 and −0.0 coefficients (both applied:
// a ±0.0 step still turns a −0.0 target element into +0.0 or keeps it),
// and a target seeded with −0.0 elements.  The dense depth 5000 puts 64
// members above the work threshold and leaves a ragged last row block;
// the 4-member case stays below it.
TEST(BatchUpdate, MatchesPerMemberAddScaledTo) {
  const simd::Isa entry_isa = simd::active_isa();
#ifdef _OPENMP
  const int entry_threads = omp_get_max_threads();
#endif
  const std::size_t m = 5000;
  const DenseMatrix pool = random_pool(70, m, 91);
  std::vector<std::size_t> cols(70);
  for (std::size_t i = 0; i < cols.size(); ++i) cols[i] = i;
  const PoolMembers dense(pool, cols);
  Members sparse(70, m, false, 93);
  std::vector<double> target = random_vector(m, 95);
  for (std::size_t r = 0; r < m; r += 3) target[r] = -0.0;
  data::SplitMix64 rng(97);
  for (const std::size_t count : {std::size_t{4}, std::size_t{64}}) {
    std::vector<std::size_t> members(count);
    std::vector<double> coeffs(count);
    for (std::size_t q = 0; q < count; ++q) {
      members[q] = static_cast<std::size_t>(rng.next_below(70));
      coeffs[q] = rng.next_normal();
    }
    members[1] = members[0];  // one member listed twice
    coeffs[0] = 0.0;          // zero step
    coeffs[2] = -0.0;         // −0.0 step on a listed member
    for (const simd::Isa isa :
         {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2}) {
      if (!simd::isa_available(isa)) continue;
      ASSERT_TRUE(simd::set_kernel_isa(isa));
      for (const int threads : {1, 2, 4}) {
#ifdef _OPENMP
        omp_set_num_threads(threads);
#endif
        for (const BatchView* view : {&dense.shared(), &sparse.view()}) {
          SCOPED_TRACE(::testing::Message()
                       << simd::to_cstring(isa) << " threads=" << threads
                       << " members=" << count
                       << (view->is_dense() ? " dense" : " sparse"));
          const std::vector<double> want =
              per_member_update(*view, members, coeffs, target);
          std::vector<double> got = target;
          view->add_combination_to(members, coeffs, got);
          EXPECT_TRUE(same_bits(got, want));
        }
      }
    }
  }
  // The −0.0 targets are live: a +0.0 step on a nonnegative element
  // flips them, so skipping a ±0.0 coefficient would change the bits.
  std::vector<double> flipped(m, -0.0);
  const std::size_t first = 0;
  const double zero = 0.0;
  dense.shared().add_combination_to({&first, 1}, {&zero, 1}, flipped);
  std::size_t positive_zeros = 0;
  for (std::size_t r = 0; r < m; ++r)
    if (pool(0, r) >= 0.0 && flipped[r] == 0.0 && !std::signbit(flipped[r]))
      ++positive_zeros;
  EXPECT_GT(positive_zeros, 0u);
#ifdef _OPENMP
  omp_set_num_threads(entry_threads);
#endif
  simd::set_kernel_isa(entry_isa);
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

TEST(RowBlock, ViewsAreBitwiseTheRowSliceLayouts) {
  // A rank keeps one column layout built straight from the dataset; its
  // views must be bitwise the ones over the rank's CSR row slice: the
  // slice's transpose (sparse mode) and the column-major staging
  // scattered from the slice (dense mode).  P = 1, and P = 3 with an
  // empty middle rank; repeated members included.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const std::vector<std::size_t> cols{0, 7, 7, 63, 31, 2};
  for (const double density : {0.05, 0.5}) {
    const data::Dataset d = make_dataset(density, 47);
    const std::size_t m = d.num_points();
    const bool dense = d.a.density() > core::kDenseBatchThreshold;
    ASSERT_EQ(dense, density > 0.25);
    for (const data::Partition& part :
         {data::Partition::block(m, 1), data::Partition({0, 50, 50, m})}) {
      for (int rank = 0; rank < part.num_ranks(); ++rank) {
        SCOPED_TRACE(testing::Message() << "density " << density << " P "
                                        << part.num_ranks() << " rank "
                                        << rank);
        const CsrMatrix slice = d.a.row_slice(part.begin(rank),
                                              part.end(rank));
        const std::size_t m_loc = slice.rows();
        const core::RowBlock block(d, part, rank);
        ASSERT_EQ(block.local_rows(), m_loc);
        Workspace ws;
        const BatchView view = block.view_columns(cols, ws);
        ASSERT_EQ(view.is_dense(), dense);
        ASSERT_EQ(view.dim(), m_loc);
        ASSERT_EQ(view.size(), cols.size());
        if (dense) {
          std::vector<double> stage(d.num_features() * m_loc, 0.0);
          for (std::size_t i = 0; i < m_loc; ++i) {
            const auto idx = slice.row_indices(i);
            const auto val = slice.row_values(i);
            for (std::size_t p = 0; p < idx.size(); ++p)
              stage[idx[p] * m_loc + i] = val[p];
          }
          for (std::size_t q = 0; q < cols.size(); ++q)
            for (std::size_t i = 0; i < m_loc; ++i)
              EXPECT_EQ(bits(view.dense_row(q)[i]),
                        bits(stage[cols[q] * m_loc + i]))
                  << "member " << q << " row " << i;
        } else {
          const CsrMatrix columns = slice.transposed();
          for (std::size_t q = 0; q < cols.size(); ++q) {
            const auto idx = columns.row_indices(cols[q]);
            const auto val = columns.row_values(cols[q]);
            ASSERT_EQ(view.member_nnz(q), idx.size()) << "member " << q;
            for (std::size_t p = 0; p < idx.size(); ++p) {
              EXPECT_EQ(view.member_indices(q)[p], idx[p]);
              EXPECT_EQ(bits(view.member_values(q)[p]), bits(val[p]));
            }
          }
        }
      }
    }
  }
}

TEST(RowBlock, ViewRejectsAColumnOutOfRange) {
  const data::Dataset d = make_dataset(0.05, 43);
  const core::RowBlock block(
      d, data::Partition::block(d.num_points(), 1), 0);
  Workspace ws;
  const std::vector<std::size_t> cols{0, d.num_features()};
  EXPECT_THROW(block.view_columns(cols, ws), PreconditionError);
}

}  // namespace
}  // namespace sa::la
