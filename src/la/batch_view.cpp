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
//     so the active row segments stay L1-resident.  On AVX-512F hosts the
//     avx2 table's micro-kernel runs 4×8 blocks on zmm registers, two
//     AVX2 accumulators per register, with the ymm kernel's bits
//     (la/simd/kernels_avx512.cpp).  Every (chunk, tile)
//     pair is an independent work item of one OpenMP region
//     (schedule(dynamic) above the work threshold); each output entry is
//     written by exactly one item in a fixed order (deterministic).
//   * Sparse Gram — support intersection.  On sparse data the chunk
//     segments of a member are mostly nonempty but the PRODUCTS are
//     mostly zero: two sampled columns share a row in well under 1% of
//     (i, j, chunk) triples.  So the caller cuts each member's in-range
//     nonzeros into chunk segments (ChunkSegments, once per round for the
//     Gram and the dots together), and before the OpenMP region the
//     calling thread sets, in a row → member bit table, one bit per
//     in-range nonzero.  Row pass i then scatters v_i into a dense
//     accumulator (as an SpGEMM row would), one flat loop over its
//     nonzeros.  The diagonal (i, i) meets in every segment: its partials
//     are one gather_dot2_segments call over v_i's segments.  One flat OR
//     of the table rows of v_i's nonzeros, masked to bits j > i, says
//     whether v_i has a partner at all; usually it has none (a 4-member
//     rcv1 round has about 4.2 Gram entries with partials, 4 of them
//     diagonal).  Only then does the pass walk v_i chunk by chunk, ORing
//     those rows per segment: the set bits j > i are exactly the partners
//     that share a row with v_i in that chunk, and each such (i, j, chunk)
//     partial is the kernel table's gather_dot2 over v_j's chunk segment.
//     Every other partial is left at +0.0.  That is exact: every ISA's
//     gather_dot / gather_dot2 starts from +0.0 and only adds products,
//     so when every gathered x is ±0.0 and the values are finite the
//     result is +0.0 (pinned by tests/la/test_simd_dispatch.cpp; the
//     LIBSVM reader rejects non-finite values).  A segmented entry's
//     partial is bitwise its single-segment call, so none of this moves a
//     bit.  The computed partials go to an EntrySink, per packed entry in
//     ascending chunk order; RoundMessage::fold_entries folds them
//     straight into the payload, and sampled_gram_range stages them
//     chunk-major.
//   * Dots — one sequential dot (dense) per (chunk, member).  The s
//     blocks of a round are drawn independently, so a dense batch can
//     hold the same column twice (equal row pointers); a repeated dense
//     member's dots are computed once per chunk and copied.  A sparse
//     member makes one gather_dot_segments call per right-hand side over
//     its chunk segments, and its partials go to an EntrySink as the
//     sparse Gram's do (sampled_dots_entries; sampled_dots_range stages
//     them chunk-major).
//   * Batch update (BatchView::add_combination_to) — a dense batch's
//     deferred updates run as one pass over row blocks of the target,
//     the blocks split across one OpenMP region; within a block the
//     members' axpys run in member order, and axpy is elementwise
//     multiply-then-add on every ISA, so each element sees exactly the
//     per-member add_scaled_to sequence.
//
// A chunk's partial is therefore exactly the call a one-chunk range over
// that chunk makes: the same kernel-table entry over the same values in
// the same order.  Output is the *packed* row-major upper triangle and the
// dot sections, written straight into the caller's staging block (or, for
// a sparse view's entry forms, handed to the caller's sink).
#include "la/batch_view.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/annotate.hpp"
#include "common/check.hpp"
#include "la/simd/simd.hpp"
#include "la/vector_ops.hpp"

namespace sa::la {

namespace {

constexpr std::size_t kGramTile = 32;  // tile edge, multiple of the 4×4 micro
// Target rows per batch-update block: 8 KiB of the target stays in L1
// while every member's step sweeps it.
constexpr std::size_t kUpdateBlock = 1024;
// kParallelFlopThreshold (vector_ops.hpp) gates OpenMP use throughout.

// ---------------------------------------------------------------------------
// Per-call scratch.  Grow-only and thread_local (each OpenMP worker and
// each rank thread gets its own copy), sized by the largest call and
// reused allocation-free thereafter.
// ---------------------------------------------------------------------------

constexpr std::size_t kMaskBits = 64;  // members per row-table word

/// ⌈k / 64⌉: row-table words per row for k members.
std::size_t mask_words(std::size_t k) {
  return (k + kMaskBits - 1) / kMaskBits;
}

/// The sparse Gram's row → member bit table of the calling thread, for
/// `words` words per row over rows [0, dim): bit j % 64 of word j / 64 of
/// row r is set while member j has a nonzero at row r inside the call's
/// range.  All-zero between calls — a call clears the rows it set before
/// it returns — so it is zero-filled only when it grows, and a call costs
/// O(nnz) however long the dimension is.  Built before the OpenMP region,
/// read-only inside it.
std::span<std::uint64_t> row_members(std::size_t dim, std::size_t words) {
  thread_local std::vector<std::uint64_t> table;
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (table.size() < dim * words) table.resize(dim * words, 0);
  return {table.data(), dim * words};
}

void check_bounds(const BatchView& y, std::span<const std::size_t> bounds,
                  const char* what) {
  SA_CHECK(!bounds.empty() && bounds.back() <= y.dim(), what);
  for (std::size_t c = 1; c < bounds.size(); ++c)
    SA_CHECK(bounds[c - 1] <= bounds[c], what);
}

/// The positions [first, last) of a sparse member's nonzeros inside the
/// call's range [bounds.front(), bounds.back()) of a dimension-`dim`
/// view; the common whole-range ends need no search.
struct InRange {
  std::size_t first = 0;
  std::size_t last = 0;
};

InRange in_range(std::span<const std::size_t> idx,
                 std::span<const std::size_t> bounds, std::size_t dim) {
  const auto first =
      bounds.front() == 0
          ? idx.begin()
          : std::lower_bound(idx.begin(), idx.end(), bounds.front());
  const auto last = bounds.back() == dim
                        ? idx.end()
                        : std::lower_bound(first, idx.end(), bounds.back());
  return {static_cast<std::size_t>(first - idx.begin()),
          static_cast<std::size_t>(last - idx.begin())};
}

/// A segmented kernel-table entry (gather_dot_segments or
/// gather_dot2_segments).
using SegmentedGather = void (*)(const double*, const std::size_t*,
                                 const std::size_t*, std::size_t,
                                 const double*, double*);

/// Member i's partial against x in each of its nonempty segments, from
/// ONE call of `gather`, as (chunk, value) pairs in ascending chunk order
/// in `out`; `values` is scratch.  Both hold at least ms.count(i) entries.
std::span<const common::ChunkPartial> segment_partials(
    SegmentedGather gather, const BatchView& y, const ChunkSegments& ms,
    std::size_t i, const double* x, double* values,
    common::ChunkPartial* out) {
  const std::size_t segs = ms.count(i);
  gather(y.member_values(i).data(), y.member_indices(i).data(), ms.cuts(i),
         segs, x, values);
  const std::size_t* chunk = ms.chunks(i);
  for (std::size_t t = 0; t < segs; ++t) out[t] = {chunk[t], values[t]};
  return {out, segs};
}

/// One sparse Gram row pass's scratch, per thread (each OpenMP worker and
/// each rank thread has its own).  Every buffer is sized by the call's
/// shape, not by its nonzeros, so steady-state rounds reuse it.
struct RowPassScratch {
  /// Member i scattered densely; all-zero between row passes (each pass
  /// restores the zeros it scatters), so the Gram of ultra-sparse
  /// high-dimensional batches (the url/news20 twins) costs O(nnz) per
  /// call instead of O(dim).
  std::vector<double> acc;
  /// Entry (i, j)'s computed partials of one pass, at most one per chunk,
  /// at hits[j·n ..); count[j] of them for a partner j > i (0 between
  /// passes).
  std::vector<common::ChunkPartial> hits;
  std::vector<std::size_t> count;
  /// The diagonal's segmented gather output, one value per segment.
  std::vector<double> values;
  /// Partner j's current segment (counted from its first): every hit
  /// for j lies in a later chunk than the one before.
  std::vector<std::size_t> cursor;
  /// The partners of one chunk of v_i; all-zero between chunks.
  std::vector<std::uint64_t> partners;
};

RowPassScratch& row_pass_scratch(std::size_t dim, std::size_t k,
                                 std::size_t n) {
  thread_local RowPassScratch s;
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (s.acc.size() < dim) s.acc.resize(dim, 0.0);
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (s.hits.size() < k * n) s.hits.resize(k * n);
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (s.count.size() < k) s.count.resize(k, 0);
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (s.values.size() < n) s.values.resize(n);
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (s.cursor.size() < k) s.cursor.resize(k, 0);
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (s.partners.size() < mask_words(k)) s.partners.resize(mask_words(k), 0);
  return s;
}

/// One sparse dot pass's scratch, per thread: a member's segmented gather
/// output and its (chunk, value) pairs, n each.
struct DotScratch {
  std::vector<double> values;
  std::vector<common::ChunkPartial> partials;
};

DotScratch& dot_scratch(std::size_t n) {
  thread_local DotScratch s;
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (s.values.size() < n) s.values.resize(n);
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (s.partials.size() < n) s.partials.resize(n);
  return s;
}

/// Dense rows shifted to every chunk start: rows[c·k + i] =
/// members[i] + bounds[c] for the k = members.size() rows, so chunk c is
/// a dense view of depth bounds[c + 1] − bounds[c].  Grow-only and
/// thread-local, built by the calling thread before the OpenMP region and
/// read-only inside it.
std::span<const double* const> chunk_rows(
    std::span<const double* const> members,
    std::span<const std::size_t> bounds) {
  thread_local std::vector<const double*> rows;
  const std::size_t k = members.size();
  const std::size_t n = bounds.size() - 1;
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (rows.size() < n * k) rows.resize(n * k);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t i = 0; i < k; ++i)
      rows[c * k + i] = members[i] + bounds[c];
  return {rows.data(), n * k};
}

/// The distinct members of a dense view, keyed by row pointer: member i
/// is distinct row slot[i]; distinct row u is rows[u] and first appears
/// as member first[u].
struct DistinctRows {
  std::size_t count = 0;
  std::span<const std::size_t> slot;
  std::span<const std::size_t> first;
  std::span<const double* const> rows;
};

/// Builds the calling thread's DistinctRows of a dense view (grow-only and
/// thread-local, sized by k whatever the distinct count, so a round with
/// more distinct members than the last never grows it).  One scan of the
/// distinct rows so far per member: O(k·count), a few thousand pointer
/// compares for a 64-member batch.
DistinctRows distinct_rows(const BatchView& y) {
  thread_local std::vector<std::size_t> slot;
  thread_local std::vector<std::size_t> first;
  thread_local std::vector<const double*> rows;
  const std::size_t k = y.size();
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (slot.size() < k) slot.resize(k);
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (first.size() < k) first.resize(k);
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (rows.size() < k) rows.resize(k);
  std::size_t count = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const double* row = y.row_pointers()[i];
    std::size_t u = 0;
    while (u < count && rows[u] != row) ++u;
    if (u == count) {
      first[count] = i;
      rows[count++] = row;
    }
    slot[i] = u;
  }
  return {count, {slot.data(), k}, {first.data(), count},
          {rows.data(), count}};
}

}  // namespace

void ChunkSegments::cut(const BatchView& y,
                        std::span<const std::size_t> bounds) {
  SA_CHECK(!y.is_dense(), "ChunkSegments::cut: requires a sparse view");
  check_bounds(y, bounds, "ChunkSegments::cut: invalid chunk bounds");
  const std::size_t k = y.size();
  const std::size_t n = bounds.size() - 1;
  members_ = k;
  chunks_ = n;
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (chunk_.size() < k * n) chunk_.resize(k * n);
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (cut_.size() < k * n + k) cut_.resize(k * n + k);
  // sa-lint: allow(alloc): grow-only scratch, steady state reuses it
  if (start_.size() < k + 1) start_.resize(k + 1);
  std::size_t count = 0;
  for (std::size_t i = 0; i < k; ++i) {
    start_[i] = count;
    const std::span<const std::size_t> idx = y.member_indices(i);
    const InRange r = in_range(idx, bounds, y.dim());
    cut_[count + i] = r.first;
    // One pass over the nonzeros: each finds its chunk by a branch-free
    // binary search of the bounds (the last c with bounds[c] ≤ row; its
    // chunk is nonempty, and the row is in range) and either extends the
    // current segment or opens the next.  Segments are one or two
    // nonzeros long on sparse data, so a walk that branched on where they
    // end would mispredict about once per segment.
    std::size_t open = ~std::size_t{0};
    for (std::size_t p = r.first; p < r.last; ++p) {
      const std::size_t* base = bounds.data();
      for (std::size_t len = n; len > 1;) {
        const std::size_t half = len / 2;
        base = base[half] <= idx[p] ? base + half : base;
        len -= half;
      }
      const auto c = static_cast<std::size_t>(base - bounds.data());
      count += c != open;
      open = c;
      chunk_[count - 1] = c;
      cut_[count + i] = p + 1;
    }
  }
  start_[k] = count;
}

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

void BatchView::add_combination_to(std::span<const std::size_t> members,
                                   std::span<const double> coeffs,
                                   std::span<double> target) const {
  SA_CHECK(members.size() == coeffs.size(),
           "BatchView::add_combination_to: members/coeffs length mismatch");
  SA_CHECK(target.size() == dim_,
           "BatchView::add_combination_to: length mismatch");
  for (const std::size_t i : members)
    SA_CHECK(i < size(), "BatchView::add_combination_to: index out of range");
  if (!is_dense()) {
    for (std::size_t q = 0; q < members.size(); ++q)
      add_scaled_to(members[q], coeffs[q], target);
    return;
  }
  const simd::KernelTable& kt = simd::active();
  const std::size_t blocks = (dim_ + kUpdateBlock - 1) / kUpdateBlock;
  const bool parallel =
      2 * members.size() * dim_ >= kParallelFlopThreshold && blocks > 1;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (parallel)
#endif
  for (std::ptrdiff_t b = 0; b < static_cast<std::ptrdiff_t>(blocks); ++b) {
    const std::size_t r0 = static_cast<std::size_t>(b) * kUpdateBlock;
    const std::size_t len = std::min(kUpdateBlock, dim_ - r0);
    for (std::size_t q = 0; q < members.size(); ++q)
      kt.axpy(coeffs[q], rows_[members[q]] + r0, target.data() + r0, len);
  }
  (void)parallel;
}

std::size_t BatchView::gram_flops() const {
  const std::size_t k = size();
  if (is_dense()) return k * (k + 1) * dim_;
  // Every pair (i, j ≥ i) gathering through all of v_j's nonzeros (one
  // multiply + one add each): Σ_j 2·(j+1)·nnz_j.  The metered count stays
  // this full sweep; the support-intersection kernel executes only the
  // gathers whose rows meet, a small fraction on sparse data.
  std::size_t flops = 0;
  for (std::size_t j = 0; j < k; ++j) flops += 2 * (j + 1) * idx_[j].size();
  return flops;
}

std::size_t BatchView::dot_all_flops() const { return 2 * nnz(); }

std::size_t fused_buffer_size(std::size_t k, std::size_t sections) {
  return k * (k + 1) / 2 + sections * k;
}

void gather_packed_upper(std::span<const double> table, std::size_t width,
                         std::span<const std::size_t> members,
                         std::span<double> out) {
  const std::size_t k = members.size();
  SA_CHECK(table.size() == fused_buffer_size(width, 0) &&
               out.size() == fused_buffer_size(k, 0),
           "gather_packed_upper: buffer size mismatch");
  for (const std::size_t a : members)
    SA_CHECK(a < width, "gather_packed_upper: member out of range");
  for (std::size_t i = 0, e = 0; i < k; ++i) {
    const std::size_t a = members[i];
    for (std::size_t j = i; j < k; ++j, ++e) {
      const std::size_t b = members[j];
      out[e] = table[a <= b ? packed_upper_index(a, b, width)
                            : packed_upper_index(b, a, width)];
    }
  }
}

namespace {

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
  const std::span<const double* const> rows =
      chunk_rows(y.row_pointers(), bounds);
  std::fill(out.begin(), out.end(), 0.0);
  const std::size_t tiles = (k + kGramTile - 1) / kGramTile;
  const std::size_t tile_pairs = tiles * (tiles + 1) / 2;
  const std::size_t items = n * tile_pairs;
  const bool parallel =
      k * (k + 1) * (bounds[n] - bounds[0]) / 2 >= kParallelFlopThreshold;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) if (parallel)
#endif
  for (std::ptrdiff_t t = 0; t < static_cast<std::ptrdiff_t>(items); ++t) {
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

/// Sparse Gram by support intersection over the cut `ms` (see the file
/// comment): hands every packed entry's computed partials to `sink`, in
/// ascending chunk order; every (i, j, chunk) partial it does not hand
/// over is +0.0.
void sparse_gram(const BatchView& y, const ChunkSegments& ms,
                 const EntrySink& sink, const simd::KernelTable& kt) {
  const std::size_t k = y.size();
  const std::size_t n = ms.num_chunks();
  const std::size_t words = mask_words(k);
  const std::span<std::uint64_t> table = row_members(y.dim(), words);
  // Sets (on == true) or clears every in-range nonzero's row-table bit.
  const auto mark = [&](bool on) {
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t* idx = y.member_indices(j).data();
      const std::uint64_t bit = std::uint64_t{1} << (j % kMaskBits);
      for (std::size_t p = ms.first(j); p < ms.last(j); ++p) {
        std::uint64_t& w = table[idx[p] * words + j / kMaskBits];
        w = on ? w | bit : 0;
      }
    }
  };
  mark(true);
  const auto row_pass = [&](std::size_t i, RowPassScratch& s) {
    const std::size_t segs = ms.count(i);
    if (segs == 0) return;
    const std::size_t* vi_idx = y.member_indices(i).data();
    const double* vi_val = y.member_values(i).data();
    const std::size_t first = ms.first(i);
    const std::size_t last = ms.last(i);
    for (std::size_t p = first; p < last; ++p) s.acc[vi_idx[p]] = vi_val[p];
    // The diagonal: v_i meets itself in every segment.
    sink(packed_upper_index(i, i, k),
         segment_partials(kt.gather_dot2_segments, y, ms, i, s.acc.data(),
                          s.values.data(), s.hits.data() + i * n));
    // Partners j > i: bits above i in v_i's word, every later word.
    const std::size_t w0 = i / kMaskBits;
    const std::uint64_t above = (~std::uint64_t{0} << (i % kMaskBits)) << 1;
    std::uint64_t any = 0;
    for (std::size_t p = first; p < last; ++p) {
      const std::uint64_t* row = table.data() + vi_idx[p] * words;
      any |= row[w0] & above;
      for (std::size_t w = w0 + 1; w < words; ++w) any |= row[w];
    }
    if (any != 0) {
      const std::size_t* chunk = ms.chunks(i);
      const std::size_t* cuts = ms.cuts(i);
      for (std::size_t t = 0; t < segs; ++t) {
        // Partners with a nonzero on one of v_i's rows in this chunk.
        for (std::size_t p = cuts[t]; p < cuts[t + 1]; ++p) {
          const std::uint64_t* row = table.data() + vi_idx[p] * words;
          for (std::size_t w = w0; w < words; ++w) s.partners[w] |= row[w];
        }
        s.partners[w0] &= above;
        for (std::size_t w = w0; w < words; ++w) {
          for (std::uint64_t bits = s.partners[w]; bits != 0;
               bits &= bits - 1) {
            const std::size_t j =
                w * kMaskBits +
                static_cast<std::size_t>(std::countr_zero(bits));
            // v_j's segments ascend by chunk, as its hits do, so its
            // cursor only moves on.
            std::size_t& at = s.cursor[j];
            if (s.count[j] == 0) at = 0;
            while (ms.chunks(j)[at] < chunk[t]) ++at;
            const std::size_t b = ms.cuts(j)[at];
            s.hits[j * n + s.count[j]++] = common::ChunkPartial{
                chunk[t],
                kt.gather_dot2(y.member_values(j).data() + b,
                               y.member_indices(j).data() + b,
                               ms.cuts(j)[at + 1] - b, s.acc.data())};
          }
          s.partners[w] = 0;
        }
      }
    }
    for (std::size_t p = first; p < last; ++p) s.acc[vi_idx[p]] = 0.0;
    if (any == 0) return;
    for (std::size_t j = i + 1; j < k; ++j) {
      if (s.count[j] == 0) continue;
      sink(packed_upper_index(i, j, k),
           std::span<const common::ChunkPartial>(s.hits.data() + j * n,
                                                 s.count[j]));
      s.count[j] = 0;
    }
  };
  // Below the work threshold the passes run inline: even an inactive
  // OpenMP region costs about as much as a small batch's whole Gram
  // (about 0.5 µs with libgomp on a 4-core x86 VM).
#ifdef _OPENMP
  if (k * y.nnz() >= kParallelFlopThreshold && k > 1) {
#pragma omp parallel
    {
      RowPassScratch& s = row_pass_scratch(y.dim(), k, n);
#pragma omp for schedule(dynamic)
      for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(k); ++i)
        row_pass(static_cast<std::size_t>(i), s);
    }
    mark(false);
    return;
  }
#endif
  RowPassScratch& s = row_pass_scratch(y.dim(), k, n);
  for (std::size_t i = 0; i < k; ++i) row_pass(i, s);
  mark(false);
}

/// The sparse dot sections over the cut `ms` (see the file comment):
/// hands entry (section, member) = section·k + i its partials, one
/// segmented gather per member and right-hand side.
void sparse_dots(const BatchView& y,
                 std::span<const std::span<const double>> xs,
                 const ChunkSegments& ms, const EntrySink& sink,
                 const simd::KernelTable& kt) {
  const std::size_t k = y.size();
  const std::size_t n = ms.num_chunks();
  const auto member_dots = [&](std::size_t i, DotScratch& s) {
    if (ms.count(i) == 0) return;
    for (std::size_t sct = 0; sct < xs.size(); ++sct)
      sink(sct * k + i,
           segment_partials(kt.gather_dot_segments, y, ms, i, xs[sct].data(),
                            s.values.data(), s.partials.data()));
  };
  // Inline below the work threshold, as in sparse_gram.
#ifdef _OPENMP
  if (2 * y.nnz() * xs.size() >= kParallelFlopThreshold && k > 1) {
#pragma omp parallel
    {
      DotScratch& s = dot_scratch(n);
#pragma omp for schedule(dynamic)
      for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(k); ++i)
        member_dots(static_cast<std::size_t>(i), s);
    }
    return;
  }
#endif
  DotScratch& s = dot_scratch(n);
  for (std::size_t i = 0; i < k; ++i) member_dots(i, s);
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
  if (y.is_dense()) {
    dense_gram(y, bounds, out, kt);
    return;
  }
  // The sparse Gram staged chunk-major: every partial the kernel skips
  // is the +0.0 of the fill.
  std::fill(out.begin(), out.end(), 0.0);
  const std::size_t tri = fused_buffer_size(y.size(), 0);
  const auto stage = [out, tri](std::size_t entry,
                                std::span<const common::ChunkPartial> p) {
    for (const common::ChunkPartial& leaf : p)
      out[leaf.chunk * tri + entry] = leaf.value;
  };
  thread_local ChunkSegments segments;
  segments.cut(y, bounds);
  sparse_gram(y, segments, EntrySink(stage), kt);
}

void sampled_gram_entries(const BatchView& y, const ChunkSegments& segments,
                          const EntrySink& sink) {
  SA_STEADY_STATE;
  SA_CHECK(!y.is_dense() && segments.members() == y.size(),
           "sampled_gram_entries: requires a sparse view and its cut");
  if (y.size() == 0 || segments.num_chunks() == 0) return;
  sparse_gram(y, segments, sink, simd::active());
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
    // One work item per (chunk, distinct member), written at the
    // member's first occurrence, then copied to the repeats.
    const DistinctRows d = distinct_rows(y);
    const std::size_t items = n * d.count;
    const bool parallel = 2 * d.count * (bounds[n] - bounds[0]) *
                                  xs.size() >=
                              kParallelFlopThreshold &&
                          items > 1;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (parallel)
#endif
    for (std::ptrdiff_t t = 0; t < static_cast<std::ptrdiff_t>(items); ++t) {
      const std::size_t c = static_cast<std::size_t>(t) / d.count;
      const std::size_t u = static_cast<std::size_t>(t) % d.count;
      const std::size_t b = bounds[c];
      const double* row = d.rows[u] + b;
      for (std::size_t sct = 0; sct < xs.size(); ++sct)
        out[c * words + sct * k + d.first[u]] =
            kt.dot(row, xs[sct].data() + b, bounds[c + 1] - b);
    }
    (void)parallel;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t from = d.first[d.slot[i]];
      if (from == i) continue;
      for (std::size_t c = 0; c < n; ++c)
        for (std::size_t sct = 0; sct < xs.size(); ++sct)
          out[c * words + sct * k + i] = out[c * words + sct * k + from];
    }
    return;
  }
  // Sparse members keep absolute indices, which gather through the FULL
  // right-hand sides; the partials the entry form leaves out are the
  // +0.0 of the fill.
  std::fill(out.begin(), out.end(), 0.0);
  const auto stage = [out, words](std::size_t entry,
                                  std::span<const common::ChunkPartial> p) {
    for (const common::ChunkPartial& leaf : p)
      out[leaf.chunk * words + entry] = leaf.value;
  };
  thread_local ChunkSegments segments;
  segments.cut(y, bounds);
  sparse_dots(y, xs, segments, EntrySink(stage), kt);
}

void sampled_dots_entries(const BatchView& y,
                          std::span<const std::span<const double>> xs,
                          const ChunkSegments& segments,
                          const EntrySink& sink) {
  SA_STEADY_STATE;
  SA_CHECK(!y.is_dense() && segments.members() == y.size(),
           "sampled_dots_entries: requires a sparse view and its cut");
  for (const std::span<const double> x : xs)
    SA_CHECK(x.size() == y.dim(), "sampled_dots_entries: rhs length mismatch");
  if (y.size() == 0 || segments.num_chunks() == 0) return;
  sparse_dots(y, xs, segments, sink, simd::active());
}

}  // namespace sa::la
