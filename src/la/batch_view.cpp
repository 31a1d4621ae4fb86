// The single home of the batched Gram / multi-dot kernels.
//
// Kernel design:
//
//   * Dense Gram — tiled upper-triangular SYRK.  The (i, j) space is cut
//     into 32×32 tiles, upper triangle only; inside a tile a 4×4 register
//     micro-kernel accumulates sixteen dot products per pass over the
//     shared dimension (eight row loads feed sixteen FMA chains, a 4× cut
//     in memory traffic over pairwise dots), and the shared dimension is
//     sliced into 512-double depth chunks so the eight active row
//     segments stay L1-resident.  Tiles are independent → OpenMP
//     schedule(dynamic) above the work threshold; each output entry is
//     written by exactly one thread in a fixed order (deterministic).
//   * Sparse Gram — accumulator kernel (SpGEMM row style).  Member i is
//     scattered once into a dense per-thread accumulator; every partner
//     dot v_i·v_j gathers through v_j's nonzeros only.
//   * Dots — one sequential dot (dense) or gather dot (sparse) per member.
//
// Output is the *packed* row-major upper triangle and the dot sections,
// written straight into the caller's allreduce buffer.
#include "la/batch_view.hpp"

#include <algorithm>
#include <array>

#include "common/annotate.hpp"
#include "common/check.hpp"
#include "la/simd/simd.hpp"
#include "la/vector_ops.hpp"

namespace sa::la {

namespace {

constexpr std::size_t kGramTile = 32;  // tile edge, multiple of the 4×4 micro
// kParallelFlopThreshold (vector_ops.hpp) gates OpenMP use throughout.
//
// The dense tile walker and its register micro-kernel now live in the
// runtime-dispatched kernel table (la/simd): the scalar entry is the
// legacy 4×4 walker verbatim, the AVX2 entry widens it to an 8×8 FMA
// tile.  Tile calls stay independent (each packed entry belongs to
// exactly one tile), so the OpenMP schedule below is unchanged.

// ---------------------------------------------------------------------------
// Sparse kernels: grow-only, all-zero scratch for the accumulator.  Each
// row pass restores the zeros it scatters, so the workspace stays all-zero
// between calls and only needs zero-filling when it grows — the Gram of
// ultra-sparse high-dimensional batches (the url/news20 twins) costs
// O(nnz) per call instead of O(dim).  thread_local gives each OpenMP
// worker its own copy, reused across parallel regions.
// ---------------------------------------------------------------------------

std::vector<double>& sparse_gram_workspace(std::size_t dim) {
  thread_local std::vector<double> acc;
  // Grow-only thread-local scratch: sized on the first call at each
  // dimension, reused allocation-free thereafter.
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (acc.size() < dim) acc.resize(dim, 0.0);
  return acc;
}

/// One row pass: scatters member i, writes its packed Gram row (entries
/// (i, j ≥ i), contiguous in the packed layout) via the gather kernel,
/// and restores the zeros.
void sparse_gram_row(const BatchView& v, std::size_t i,
                     std::vector<double>& acc, double* g, std::size_t k,
                     const simd::KernelTable& kt) {
  const std::span<const std::size_t> vi_idx = v.member_indices(i);
  const std::span<const double> vi_val = v.member_values(i);
  for (std::size_t p = 0; p < vi_idx.size(); ++p) acc[vi_idx[p]] = vi_val[p];
  double* row = g + packed_upper_index(i, i, k);
  // Partner dots gather through v_j's nonzeros (the two-accumulator
  // legacy order at the scalar level; vector gathers above it).
  for (std::size_t j = i; j < k; ++j) {
    const std::span<const std::size_t> vj_idx = v.member_indices(j);
    const std::span<const double> vj_val = v.member_values(j);
    row[j - i] =
        kt.gather_dot2(vj_val.data(), vj_idx.data(), vj_idx.size(),
                       acc.data());
  }
  for (std::size_t p = 0; p < vi_idx.size(); ++p) acc[vi_idx[p]] = 0.0;
}

}  // namespace

BatchView BatchView::dense(std::span<const double* const> rows,
                           std::size_t dim) {
  BatchView v;
  v.storage_ = Storage::kDense;
  v.rows_ = rows;
  v.dim_ = dim;
  return v;
}

BatchView BatchView::sparse(
    std::span<const std::span<const std::size_t>> indices,
    std::span<const std::span<const double>> values, std::size_t dim) {
  SA_CHECK(indices.size() == values.size(),
           "BatchView::sparse: indices/values member count mismatch");
  BatchView v;
  v.storage_ = Storage::kSparse;
  v.idx_ = indices;
  v.val_ = values;
  v.dim_ = dim;
  return v;
}

std::size_t BatchView::nnz() const {
  if (is_dense()) return size() * dim_;
  std::size_t total = 0;
  for (const auto& m : idx_) total += m.size();
  return total;
}

void BatchView::add_scaled_to(std::size_t i, double alpha,
                              std::span<double> target) const {
  SA_CHECK(i < size(), "BatchView::add_scaled_to: index out of range");
  SA_CHECK(target.size() == dim_,
           "BatchView::add_scaled_to: length mismatch");
  if (is_dense()) {
    axpy(alpha, dense_row(i), target);
    return;
  }
  const std::span<const std::size_t> idx = idx_[i];
  const std::span<const double> val = val_[i];
  for (std::size_t p = 0; p < idx.size(); ++p)
    target[idx[p]] += alpha * val[p];
}

std::size_t BatchView::gram_flops() const {
  const std::size_t k = size();
  if (is_dense()) return k * (k + 1) * dim_;
  // Accumulator kernel: the pair (i, j) gathers through v_j's nonzeros
  // (one multiply + one add each), so the cost is Σ_j 2·(j+1)·nnz_j.
  std::size_t flops = 0;
  for (std::size_t j = 0; j < k; ++j) flops += 2 * (j + 1) * idx_[j].size();
  return flops;
}

std::size_t BatchView::dot_all_flops() const { return 2 * nnz(); }

std::size_t fused_buffer_size(std::size_t k, std::size_t sections) {
  return k * (k + 1) / 2 + sections * k;
}

namespace {

/// Packed upper-triangular Gram of the whole view into `out`.
void packed_gram(const BatchView& y, std::span<double> out) {
  const std::size_t k = y.size();
  const std::size_t d = y.dim();
  SA_CHECK(out.size() == fused_buffer_size(k, 0),
           "sampled_gram_range: buffer size mismatch");
  if (k == 0) return;
  const std::size_t tri = k * (k + 1) / 2;
  double* g = out.data();

  const simd::KernelTable& kt = simd::active();
  if (y.is_dense()) {
    // Gram: upper-triangle tile pairs, iterated by flat index (no
    // materialised pair list — this runs once per outer iteration and must
    // not allocate).  Tiles are independent, so the visiting order does
    // not affect any output value.
    std::fill(out.begin(), out.begin() + tri, 0.0);
    const std::size_t tiles = (k + kGramTile - 1) / kGramTile;
    const std::size_t tile_pairs = tiles * (tiles + 1) / 2;
    const bool parallel = k * (k + 1) * d / 2 >= kParallelFlopThreshold;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) if (parallel)
#endif
    for (std::ptrdiff_t t = 0; t < static_cast<std::ptrdiff_t>(tile_pairs);
         ++t) {
      // Invert the packed upper-triangle index: find the tile row ti whose
      // range of flat indices contains t (tiles is small — a short scan).
      std::size_t ti = 0;
      std::size_t row_start = 0;
      while (row_start + (tiles - ti) <= static_cast<std::size_t>(t)) {
        row_start += tiles - ti;
        ++ti;
      }
      const std::size_t tj = ti + (static_cast<std::size_t>(t) - row_start);
      const std::size_t ib = ti * kGramTile;
      const std::size_t jb = tj * kGramTile;
      kt.gram_tile(y.row_pointers().data(), d, k, g, ib,
                   std::min(ib + kGramTile, k), jb,
                   std::min(jb + kGramTile, k));
    }
    (void)parallel;
    return;
  }

  // Sparse: one accumulator sweep per member.
  const std::size_t total_nnz = y.nnz();
  const bool parallel = k * total_nnz >= kParallelFlopThreshold && k > 1;
#ifdef _OPENMP
#pragma omp parallel if (parallel)
  {
    std::vector<double>& acc = sparse_gram_workspace(d);
#pragma omp for schedule(dynamic)
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(k); ++i)
      sparse_gram_row(y, static_cast<std::size_t>(i), acc, g, k, kt);
  }
#else
  (void)parallel;
  std::vector<double>& acc = sparse_gram_workspace(d);
  for (std::size_t i = 0; i < k; ++i)
    sparse_gram_row(y, i, acc, g, k, kt);
#endif
}

/// One dot section: out[i] = v_i · x.
void batch_dots(const BatchView& y, std::span<const double> x,
                std::span<double> out) {
  SA_CHECK(x.size() == y.dim(), "sampled_dots_range: rhs length mismatch");
  const std::size_t k = y.size();
  const bool parallel = 2 * y.nnz() >= kParallelFlopThreshold && k > 1;
  const simd::KernelTable& kt = simd::active();
  if (y.is_dense()) {
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (parallel)
#endif
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(k); ++i) {
      const std::span<const double> row =
          y.dense_row(static_cast<std::size_t>(i));
      out[i] = kt.dot(row.data(), x.data(), row.size());
    }
  } else {
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) if (parallel)
#endif
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(k); ++i) {
      // Same gather order as dot(SparseVector, span).
      const std::span<const std::size_t> idx =
          y.member_indices(static_cast<std::size_t>(i));
      const std::span<const double> val =
          y.member_values(static_cast<std::size_t>(i));
      out[i] = kt.gather_dot(val.data(), idx.data(), idx.size(), x.data());
    }
  }
  (void)parallel;
}

/// Builds the [begin, end)-restricted view in `scratch`.  Dense members
/// shift their row pointers (the staged rows are contiguous) and the view
/// narrows to end − begin; sparse members narrow their nonzero spans via
/// lower_bound over the sorted index arrays, keeping absolute indices (and
/// therefore the full dimension) so the gather kernels read the same
/// values they would in a full-range pass.
BatchView narrowed_view(const BatchView& y, std::size_t begin,
                        std::size_t end, Workspace& scratch) {
  const std::size_t k = y.size();
  if (y.is_dense()) {
    std::span<const double*> rows = scratch.member_rows(k);
    for (std::size_t i = 0; i < k; ++i)
      rows[i] = y.row_pointers()[i] + begin;
    return BatchView::dense(rows, end - begin);
  }
  std::span<std::span<const std::size_t>> idx =
      scratch.member_index_spans(k);
  std::span<std::span<const double>> val = scratch.member_value_spans(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::span<const std::size_t> mi = y.member_indices(i);
    const std::span<const double> mv = y.member_values(i);
    const std::size_t lo = static_cast<std::size_t>(
        std::lower_bound(mi.begin(), mi.end(), begin) - mi.begin());
    const std::size_t hi = static_cast<std::size_t>(
        std::lower_bound(mi.begin() + lo, mi.end(), end) - mi.begin());
    idx[i] = mi.subspan(lo, hi - lo);
    val[i] = mv.subspan(lo, hi - lo);
  }
  return BatchView::sparse(idx, val, y.dim());
}

}  // namespace

void sampled_gram_range(const BatchView& y, std::size_t begin,
                        std::size_t end, Workspace& scratch,
                        std::span<double> out) {
  SA_STEADY_STATE;
  SA_CHECK(begin <= end && end <= y.dim(),
           "sampled_gram_range: invalid range");
  packed_gram(narrowed_view(y, begin, end, scratch), out);
}

void sampled_dots_range(const BatchView& y,
                        std::span<const std::span<const double>> xs,
                        std::size_t begin, std::size_t end,
                        Workspace& scratch, std::span<double> out) {
  SA_STEADY_STATE;
  SA_CHECK(begin <= end && end <= y.dim(),
           "sampled_dots_range: invalid range");
  const std::size_t k = y.size();
  SA_CHECK(out.size() == xs.size() * k,
           "sampled_dots_range: buffer size mismatch");
  const BatchView view = narrowed_view(y, begin, end, scratch);
  for (std::size_t sct = 0; sct < xs.size(); ++sct) {
    // Sparse members kept absolute indices, which gather through the FULL
    // right-hand sides; dense members were shifted to `begin`.
    const std::span<const double> x =
        y.is_dense() ? xs[sct].subspan(begin, end - begin) : xs[sct];
    batch_dots(view, x, out.subspan(sct * k, k));
  }
}

}  // namespace sa::la
