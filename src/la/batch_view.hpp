// Non-owning view over a batch of sampled vectors + the Gram / dot kernels.
//
// Instead of gathering the s·µ sampled columns into freshly allocated
// storage every outer iteration, a view describes the members in place —
// sparse members as (indices, values) span pairs aliasing a block's
// already-materialised CSR arrays, dense members as row pointers (into a
// block's persistent staged copy).  The descriptor arrays themselves live
// in a la::Workspace, so building a view performs no heap allocation in
// steady state.
//
// A round's allreduce buffer is laid out as
//
//   [ upper(G) | Yᵀx₀ | Yᵀx₁ | … ]
//
// (row-major upper triangle, then one length-k section per right-hand
// side).  sampled_gram_range() writes the Gram section and
// sampled_dots_range() the dot sections, each for every chunk of a
// monotone chunk grid over the shared dimension in ONE call; a single
// range is the one-chunk case.  Sparse views also have entry forms,
// sampled_gram_entries() and sampled_dots_entries(), which hand over only
// the computed partials and read the members from one ChunkSegments cut
// that a round makes once and shares between them; the range forms cut
// and stage.  These are the only Gram and dot entry points, so every
// caller runs the same code in the same accumulation order.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/grouping.hpp"
#include "la/workspace.hpp"

namespace sa::la {

/// Non-owning batch of k vectors, each of logical length dim().
class BatchView {
 public:
  BatchView() = default;

  /// Dense members: rows[i] points at a contiguous length-dim vector.
  static BatchView dense(std::span<const double* const> rows,
                         std::size_t dim);

  /// Sparse members: (indices[i], values[i]) describe member i; indices
  /// are strictly increasing positions in [0, dim).
  static BatchView sparse(std::span<const std::span<const std::size_t>> indices,
                          std::span<const std::span<const double>> values,
                          std::size_t dim);

  std::size_t size() const {
    return is_dense() ? rows_.size() : idx_.size();
  }
  std::size_t dim() const { return dim_; }
  bool is_dense() const { return storage_ == Storage::kDense; }

  /// Total nonzeros across the batch (k·dim for dense views).
  std::size_t nnz() const;

  /// Member i as a contiguous span (requires is_dense()).
  std::span<const double> dense_row(std::size_t i) const {
    return std::span<const double>(rows_[i], dim_);
  }
  /// All dense member row pointers (requires is_dense()).
  std::span<const double* const> row_pointers() const { return rows_; }
  std::span<const std::size_t> member_indices(std::size_t i) const {
    return idx_[i];
  }
  std::span<const double> member_values(std::size_t i) const {
    return val_[i];
  }

  /// Nonzeros of member i (dim() for dense views).  O(1).
  std::size_t member_nnz(std::size_t i) const {
    return is_dense() ? dim_ : idx_[i].size();
  }

  /// target := target + alpha · v_i  (same accumulation order as the
  /// dense axpy and sparse scatter kernels — bit-identical updates).
  void add_scaled_to(std::size_t i, double alpha,
                     std::span<double> target) const;

  /// target := target + Σ_q coeffs[q] · v_{members[q]}, bitwise the
  /// add_scaled_to(members[q], coeffs[q], target) calls in q order (every
  /// listed member is applied, a ±0.0 coefficient too).  Dense views run
  /// the whole batch in row blocks, one OpenMP region above the work
  /// threshold; each element still sees the members' multiply-then-add
  /// steps in q order.  Sparse views scatter member by member.
  void add_combination_to(std::span<const std::size_t> members,
                          std::span<const double> coeffs,
                          std::span<double> target) const;

  /// Metered flops of the packed Gram on this view (dense k(k+1)·dim,
  /// sparse Σ_j 2(j+1)·nnz_j — the full pairwise sweep, which the sparse
  /// kernel's support intersection only bounds from above).
  std::size_t gram_flops() const;

  /// Flops of one dot section (2·nnz).
  std::size_t dot_all_flops() const;

 private:
  enum class Storage { kDense, kSparse };
  Storage storage_ = Storage::kDense;

  std::span<const double* const> rows_;                    // dense members
  std::span<const std::span<const std::size_t>> idx_;      // sparse members
  std::span<const std::span<const double>> val_;
  std::size_t dim_ = 0;
};

/// Index of entry (i, j), j ≥ i, in the row-major packed upper triangle
/// of a k×k symmetric matrix — the wire format the Gram kernel writes
/// and the solvers read back (row i starts at i·k − i(i−1)/2).  The one
/// definition of the packed layout; keep every reader on it.
inline std::size_t packed_upper_index(std::size_t i, std::size_t j,
                                      std::size_t k) {
  return i * k - i * (i + 1) / 2 + j;
}

/// Size of the round buffer for k members and `sections` right-hand
/// sides: k(k+1)/2 packed Gram entries plus sections·k dot entries.
std::size_t fused_buffer_size(std::size_t k, std::size_t sections);

/// The packed upper triangle of the k = members.size() members of a
/// `width`-member batch whose own triangle is `table`: entry (i, j) is
/// table entry (min, max) of (members[i], members[j]), the one gather the
/// dense Gram cache (core/engine.hpp) writes each round's Gram with.
void gather_packed_upper(std::span<const double> table, std::size_t width,
                         std::span<const std::size_t> members,
                         std::span<double> out);

// Chunked entry points, one per buffer section.  `bounds` holds the
// n + 1 monotone boundaries of n chunks of the shared dimension (chunk c
// is [bounds[c], bounds[c + 1]), possibly empty; bounds.back() ≤ dim());
// `out` holds n blocks of one chunk's section words, chunk c's block at
// c·words.  The fixed reduction grouping (common/grouping.hpp) calls each
// once per round with the rank's owned chunks.  Steady-state calls
// allocate nothing (the per-call scratch is grow-only and thread-local).
//
// Bit contract, per call: chunk c's partial is bitwise the partial a
// call with bounds {bounds[c], bounds[c + 1]} writes.  It depends only on
// the member values inside the chunk, their order, and the active kernel
// table — never on the other chunks in the call or on the thread count —
// so any two ranks (or rank counts) that own the same global chunk
// produce identical bits.  An empty chunk writes +0.0.  Every output
// entry is produced by exactly one thread in a fixed accumulation order.

/// Packed upper-triangular Gram of every chunk: out must have
/// n·k(k+1)/2 entries (n·fused_buffer_size(size(), 0)).  For sparse views
/// this is sampled_gram_entries staged chunk-major into a +0.0 fill.
void sampled_gram_range(const BatchView& y,
                        std::span<const std::size_t> bounds,
                        std::span<double> out);

/// Non-owning reference to a callable `f(entry, partials)` that receives
/// the computed chunk partials of one packed Gram entry.  The callable
/// must outlive the sink.
class EntrySink {
 public:
  template <typename F>
  explicit EntrySink(const F& f) : f_(&f), call_(&invoke<F>) {}

  void operator()(std::size_t entry,
                  std::span<const common::ChunkPartial> partials) const {
    call_(f_, entry, partials);
  }

 private:
  template <typename F>
  static void invoke(const void* f, std::size_t entry,
                     std::span<const common::ChunkPartial> partials) {
    (*static_cast<const F*>(f))(entry, partials);
  }

  const void* f_;
  void (*call_)(const void*, std::size_t,
                std::span<const common::ChunkPartial>);
};

/// The members of a sparse view cut into the nonempty chunk segments of a
/// chunk grid, chunk c being [bounds[c], bounds[c + 1]): what the entry
/// forms read.  A round cuts its batch once and hands the cut to both.
/// Member i's segments are consecutive and in chunk order; segment t lies
/// in chunk chunks(i)[t] and holds its nonzeros [cuts(i)[t],
/// cuts(i)[t + 1]), so its count(i) + 1 cuts run from its first in-range
/// nonzero to past its last — the form a segmented gather takes.  The
/// storage is grow-only, so steady-state cuts allocate nothing.
class ChunkSegments {
 public:
  /// Cuts the members of sparse view `y` over the monotone chunk grid
  /// `bounds` (bounds.back() ≤ y.dim()), replacing the previous cut.
  /// Reads the view's indices, not its values.
  void cut(const BatchView& y, std::span<const std::size_t> bounds);

  std::size_t members() const { return members_; }
  std::size_t num_chunks() const { return chunks_; }

  std::size_t count(std::size_t i) const { return start_[i + 1] - start_[i]; }
  const std::size_t* chunks(std::size_t i) const {
    return chunk_.data() + start_[i];
  }
  const std::size_t* cuts(std::size_t i) const {
    return cut_.data() + start_[i] + i;
  }
  /// Member i's in-range nonzeros [first(i), last(i)).
  std::size_t first(std::size_t i) const { return cuts(i)[0]; }
  std::size_t last(std::size_t i) const { return cuts(i)[count(i)]; }

 private:
  std::size_t members_ = 0;
  std::size_t chunks_ = 0;
  std::vector<std::size_t> chunk_;  // every member's segment chunks
  std::vector<std::size_t> cut_;    // every member's count + 1 cuts
  std::vector<std::size_t> start_;  // member i's first segment
};

/// The sparse Gram (requires !y.is_dense()) by support intersection, over
/// `segments` (y cut over the rank's chunks): only the (i, j, chunk)
/// partials where v_i and v_j share a row in the chunk are computed —
/// each bitwise the kernel table's gather_dot2 over v_j's chunk segment
/// against v_i — and every other partial is +0.0 (exact for finite
/// values, see batch_view.cpp).  `sink(entry, partials)` receives each
/// packed entry (packed_upper_index) that has computed partials, once, as
/// (chunk, value) pairs in ascending chunk order, possibly from several
/// OpenMP workers at once for different entries.  Entries without
/// partials are not passed.
void sampled_gram_entries(const BatchView& y, const ChunkSegments& segments,
                          const EntrySink& sink);

/// Dot sections of every chunk: chunk c's block is
/// [Yᵀxs[0] | Yᵀxs[1] | …] over the chunk, one length-k section per
/// right-hand side (out.size() == n · xs.size() · size()).  Pass each
/// right-hand side whole (length dim()): dense members read it at the
/// chunk's offset, sparse members gather through their absolute indices.
/// For sparse views this is sampled_dots_entries staged chunk-major into
/// a +0.0 fill.
void sampled_dots_range(const BatchView& y,
                        std::span<const std::span<const double>> xs,
                        std::span<const std::size_t> bounds,
                        std::span<double> out);

/// The sparse dot sections (requires !y.is_dense()) in the entry form of
/// sampled_gram_entries, over the same `segments`: `sink(entry,
/// partials)` receives word entry = s·size() + i of the sections — member
/// i against xs[s] — once per member with in-range nonzeros, as one
/// partial per chunk its nonzeros meet (each bitwise the kernel table's
/// gather_dot over its chunk segment), in ascending chunk order; every
/// other partial is +0.0.  Possibly from several OpenMP workers at once
/// for different entries.
void sampled_dots_entries(const BatchView& y,
                          std::span<const std::span<const double>> xs,
                          const ChunkSegments& segments,
                          const EntrySink& sink);

/// The one-chunk Gram over [begin, end) — the chunked call with bounds
/// {begin, end}.  `scratch` is unused; the form stays for callers that
/// time one chunk at a time (perfbench's Gram probe).
inline void sampled_gram_range(const BatchView& y, std::size_t begin,
                               std::size_t end, Workspace& scratch,
                               std::span<double> out) {
  (void)scratch;
  const std::size_t bounds[2] = {begin, end};
  sampled_gram_range(y, bounds, out);
}

}  // namespace sa::la
