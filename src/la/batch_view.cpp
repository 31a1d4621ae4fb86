// The single home of the batched Gram / multi-dot kernels.
//
// Every entry point is chunked: one call writes the partial of every
// chunk [bounds[c], bounds[c + 1]) of the shared dimension, chunk c's
// block at c·words of the output, so a round makes one kernel call per
// section however fine the reduction grid is.
//
// Kernel design:
//
//   * Dense Gram — tiled upper-triangular SYRK.  The (i, j) space is cut
//     into 32×32 tiles, upper triangle only; the tile walker and its
//     register micro-kernel live in the runtime-dispatched kernel table
//     (la/simd), the shared dimension sliced into 512-double depth chunks
//     so the active row segments stay L1-resident.  Every (chunk, tile)
//     pair is an independent work item of one OpenMP region
//     (schedule(dynamic) above the work threshold); each output entry is
//     written by exactly one item in a fixed order (deterministic).
//   * Sparse Gram — accumulator kernel (SpGEMM row style).  Member i is
//     scattered once over the whole range into a dense per-thread
//     accumulator; every partner dot v_i·v_j gathers through v_j's
//     nonzeros only, one gather per nonempty chunk segment of v_j.
//   * Dots — one sequential dot (dense) or gather dot (sparse) per
//     (chunk, member).
//
// A chunk's partial is therefore exactly the call a one-chunk range over
// that chunk makes: the same kernel-table entry over the same values in
// the same order.  Output is the *packed* row-major upper triangle and the
// dot sections, written straight into the caller's staging block.
#include "la/batch_view.hpp"

#include <algorithm>

#include "common/annotate.hpp"
#include "common/check.hpp"
#include "la/simd/simd.hpp"
#include "la/vector_ops.hpp"

namespace sa::la {

namespace {

constexpr std::size_t kGramTile = 32;  // tile edge, multiple of the 4×4 micro
// kParallelFlopThreshold (vector_ops.hpp) gates OpenMP use throughout.

// ---------------------------------------------------------------------------
// Per-call scratch.  Grow-only and thread_local (each OpenMP worker and
// each rank thread gets its own copy), sized by the largest call and
// reused allocation-free thereafter.
// ---------------------------------------------------------------------------

/// All-zero accumulator for the sparse Gram.  Each row pass restores the
/// zeros it scatters, so the buffer stays all-zero between calls and only
/// needs zero-filling when it grows — the Gram of ultra-sparse
/// high-dimensional batches (the url/news20 twins) costs O(nnz) per call
/// instead of O(dim).
std::vector<double>& sparse_gram_workspace(std::size_t dim) {
  thread_local std::vector<double> acc;
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (acc.size() < dim) acc.resize(dim, 0.0);
  return acc;
}

/// One nonempty chunk segment of a sparse member: its nonzeros
/// [at, at + len) lie in chunk `chunk`.
struct Segment {
  std::size_t chunk;
  std::size_t at;
  std::size_t len;
};

/// The nonempty chunk segments of every sparse member, member-major:
/// member i's are segments[starts[i] .. starts[i + 1]), in chunk order.
/// Chunk boundaries are monotone, so one forward walk per member finds
/// them; empty segments are not listed (their partials are +0.0).  Built
/// by the calling thread before any parallel region, read-only inside it.
struct MemberSegments {
  std::span<const Segment> segments;
  std::span<const std::size_t> starts;
};

MemberSegments member_segments(const BatchView& y,
                               std::span<const std::size_t> bounds) {
  thread_local std::vector<Segment> segments;
  thread_local std::vector<std::size_t> starts;
  const std::size_t k = y.size();
  const std::size_t n = bounds.size() - 1;
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (segments.size() < k * n) segments.resize(k * n);
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (starts.size() < k + 1) starts.resize(k + 1);
  std::size_t count = 0;
  for (std::size_t i = 0; i < k; ++i) {
    starts[i] = count;
    const std::span<const std::size_t> idx = y.member_indices(i);
    std::size_t p = static_cast<std::size_t>(
        std::lower_bound(idx.begin(), idx.end(), bounds[0]) - idx.begin());
    for (std::size_t c = 0; c < n && p < idx.size(); ++c) {
      const std::size_t at = p;
      while (p < idx.size() && idx[p] < bounds[c + 1]) ++p;
      if (p > at) segments[count++] = Segment{c, at, p - at};
    }
  }
  starts[k] = count;
  return {{segments.data(), count}, {starts.data(), k + 1}};
}

/// Dense member rows shifted to every chunk start: rows[c·k + i] =
/// row_i + bounds[c], so chunk c is a dense view of depth
/// bounds[c + 1] − bounds[c].  Same lifetime rules as member_segments.
std::span<const double* const> chunk_rows(
    const BatchView& y, std::span<const std::size_t> bounds) {
  thread_local std::vector<const double*> rows;
  const std::size_t k = y.size();
  const std::size_t n = bounds.size() - 1;
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (rows.size() < n * k) rows.resize(n * k);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t i = 0; i < k; ++i)
      rows[c * k + i] = y.row_pointers()[i] + bounds[c];
  return {rows.data(), n * k};
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

void check_bounds(const BatchView& y, std::span<const std::size_t> bounds,
                  const char* what) {
  SA_CHECK(!bounds.empty() && bounds.back() <= y.dim(), what);
  for (std::size_t c = 1; c < bounds.size(); ++c)
    SA_CHECK(bounds[c - 1] <= bounds[c], what);
}

/// Maps a flat index t over the packed upper triangle of tiles×tiles
/// tile pairs back to its tile row and column (tiles is small — a short
/// scan, no materialised pair list).
void tile_pair(std::size_t t, std::size_t tiles, std::size_t& ti,
               std::size_t& tj) {
  ti = 0;
  std::size_t row_start = 0;
  while (row_start + (tiles - ti) <= t) {
    row_start += tiles - ti;
    ++ti;
  }
  tj = ti + (t - row_start);
}

/// Dense Gram: every (chunk, tile pair) is an independent work item of
/// one OpenMP region — each packed entry of each chunk belongs to exactly
/// one item, so the visiting order does not affect any output value.
void dense_gram(const BatchView& y, std::span<const std::size_t> bounds,
                std::span<double> out, const simd::KernelTable& kt) {
  const std::size_t k = y.size();
  const std::size_t n = bounds.size() - 1;
  const std::size_t tri = fused_buffer_size(k, 0);
  const std::span<const double* const> rows = chunk_rows(y, bounds);
  std::fill(out.begin(), out.end(), 0.0);
  const std::size_t tiles = (k + kGramTile - 1) / kGramTile;
  const std::size_t tile_pairs = tiles * (tiles + 1) / 2;
  const bool parallel =
      k * (k + 1) * (bounds[n] - bounds[0]) / 2 >= kParallelFlopThreshold;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) if (parallel)
#endif
  for (std::ptrdiff_t t = 0;
       t < static_cast<std::ptrdiff_t>(n * tile_pairs); ++t) {
    const std::size_t c = static_cast<std::size_t>(t) / tile_pairs;
    std::size_t ti = 0;
    std::size_t tj = 0;
    tile_pair(static_cast<std::size_t>(t) % tile_pairs, tiles, ti, tj);
    const std::size_t ib = ti * kGramTile;
    const std::size_t jb = tj * kGramTile;
    kt.gram_tile(rows.data() + c * k, bounds[c + 1] - bounds[c], k,
                 out.data() + c * tri, ib, std::min(ib + kGramTile, k), jb,
                 std::min(jb + kGramTile, k));
  }
  (void)parallel;
}

/// Sparse Gram: member i is scattered once over the whole range; each
/// nonempty chunk segment of a partner then gathers through the same
/// gather_dot2 call a one-chunk view would make.  Empty segments are
/// left at the +0.0 the output is filled with — exactly what gather_dot2
/// returns for n = 0 at every ISA — which is most segments on
/// ultra-sparse data.
void sparse_gram(const BatchView& y, std::span<const std::size_t> bounds,
                 std::span<double> out, const simd::KernelTable& kt) {
  const std::size_t k = y.size();
  const std::size_t tri = fused_buffer_size(k, 0);
  const MemberSegments ms = member_segments(y, bounds);
  std::fill(out.begin(), out.end(), 0.0);
  const auto row_pass = [&](std::size_t i, std::vector<double>& acc) {
    const std::span<const std::size_t> vi_idx = y.member_indices(i);
    const std::span<const double> vi_val = y.member_values(i);
    const std::span<const Segment> vi_segs = ms.segments.subspan(
        ms.starts[i], ms.starts[i + 1] - ms.starts[i]);
    for (const Segment& sg : vi_segs)
      for (std::size_t p = sg.at; p < sg.at + sg.len; ++p)
        acc[vi_idx[p]] = vi_val[p];
    for (std::size_t j = i; j < k; ++j) {
      const std::size_t* vj_idx = y.member_indices(j).data();
      const double* vj_val = y.member_values(j).data();
      double* entry = out.data() + packed_upper_index(i, j, k);
      for (std::size_t q = ms.starts[j]; q < ms.starts[j + 1]; ++q) {
        const Segment& sg = ms.segments[q];
        entry[sg.chunk * tri] = kt.gather_dot2(
            vj_val + sg.at, vj_idx + sg.at, sg.len, acc.data());
      }
    }
    for (const Segment& sg : vi_segs)
      for (std::size_t p = sg.at; p < sg.at + sg.len; ++p)
        acc[vi_idx[p]] = 0.0;
  };
  const bool parallel = k * y.nnz() >= kParallelFlopThreshold && k > 1;
#ifdef _OPENMP
#pragma omp parallel if (parallel)
  {
    std::vector<double>& acc = sparse_gram_workspace(y.dim());
#pragma omp for schedule(dynamic)
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(k); ++i)
      row_pass(static_cast<std::size_t>(i), acc);
  }
#else
  (void)parallel;
  std::vector<double>& acc = sparse_gram_workspace(y.dim());
  for (std::size_t i = 0; i < k; ++i) row_pass(i, acc);
#endif
}

}  // namespace

void sampled_gram_range(const BatchView& y,
                        std::span<const std::size_t> bounds,
                        std::span<double> out) {
  SA_STEADY_STATE;
  check_bounds(y, bounds, "sampled_gram_range: invalid chunk bounds");
  SA_CHECK(out.size() == (bounds.size() - 1) * fused_buffer_size(y.size(), 0),
           "sampled_gram_range: buffer size mismatch");
  if (out.empty()) return;
  const simd::KernelTable& kt = simd::active();
  if (y.is_dense())
    dense_gram(y, bounds, out, kt);
  else
    sparse_gram(y, bounds, out, kt);
}

void sampled_dots_range(const BatchView& y,
                        std::span<const std::span<const double>> xs,
                        std::span<const std::size_t> bounds,
                        std::span<double> out) {
  SA_STEADY_STATE;
  check_bounds(y, bounds, "sampled_dots_range: invalid chunk bounds");
  const std::size_t k = y.size();
  const std::size_t n = bounds.size() - 1;
  const std::size_t words = xs.size() * k;  // one chunk's dot sections
  SA_CHECK(out.size() == n * words,
           "sampled_dots_range: buffer size mismatch");
  for (const std::span<const double> x : xs)
    SA_CHECK(x.size() == y.dim(), "sampled_dots_range: rhs length mismatch");
  const simd::KernelTable& kt = simd::active();
  if (y.is_dense()) {
    // One work item per (chunk, member); each writes its own entries.
    const std::size_t items = n * k;
    const bool parallel = 2 * k * (bounds[n] - bounds[0]) * xs.size() >=
                              kParallelFlopThreshold &&
                          items > 1;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (parallel)
#endif
    for (std::ptrdiff_t t = 0; t < static_cast<std::ptrdiff_t>(items); ++t) {
      const std::size_t c = static_cast<std::size_t>(t) / k;
      const std::size_t i = static_cast<std::size_t>(t) % k;
      const std::size_t b = bounds[c];
      const double* row = y.row_pointers()[i] + b;
      for (std::size_t sct = 0; sct < xs.size(); ++sct)
        out[c * words + sct * k + i] =
            kt.dot(row, xs[sct].data() + b, bounds[c + 1] - b);
    }
    (void)parallel;
    return;
  }
  // Sparse members keep absolute indices, which gather through the FULL
  // right-hand sides; empty segments keep the +0.0 fill (as sparse_gram).
  const MemberSegments ms = member_segments(y, bounds);
  std::fill(out.begin(), out.end(), 0.0);
  const bool parallel =
      2 * y.nnz() * xs.size() >= kParallelFlopThreshold && k > 1;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) if (parallel)
#endif
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(k); ++i) {
    const std::size_t* idx =
        y.member_indices(static_cast<std::size_t>(i)).data();
    const double* val = y.member_values(static_cast<std::size_t>(i)).data();
    for (std::size_t q = ms.starts[i]; q < ms.starts[i + 1]; ++q) {
      const Segment& sg = ms.segments[q];
      for (std::size_t sct = 0; sct < xs.size(); ++sct)
        out[sg.chunk * words + sct * k + i] =
            kt.gather_dot(val + sg.at, idx + sg.at, sg.len, xs[sct].data());
    }
  }
  (void)parallel;
}

}  // namespace sa::la
