// The packed per-round message plane every solver speaks.
//
// One outer round of every algorithm family exchanges exactly ONE
// collective, whose payload is a schema'd, contiguous buffer.  With the
// default single-chunk grouping (G = 1) the wire layout is:
//
//   [ upper(G) | Yᵀỹ | Yᵀz̃ | objective | stop-flags | checksum ]
//    └─ kGram ─┴kDots1┴kDots2┴kObjective─┴─kStopFlags┴─kChecksum┘
//
// Under a fixed global reduction grouping (set_grouping(G), G > 1 — see
// common/grouping.hpp) the body sections are replicated per global chunk
// so the reduction accumulates in chunk order, not rank order:
//
//   [ chunk 0: gram|dots1|dots2 ] … [ chunk G-1 ] [ objective × G ]
//   [ stop-flags | checksum ]  ‖  fold: [ gram|dots1|dots2|objective ]
//
// Each rank writes per-chunk partials for the global chunks it owns
// (chunk_section/chunk_dots/objective_chunks); foreign chunk slots stay
// +0.0 and contribute exactly nothing to the elementwise sum, so the wire
// carries the per-chunk totals regardless of rank count.  After
// reduce_wait, the chunks are folded left-to-right in global-chunk order
// into the fold region past the wire; section() then serves the folded
// sums through the same accessors the G = 1 path uses, so apply_round is
// grouping-agnostic.  Folding from +0.0 also canonicalises any -0.0 chunk
// total, keeping serial and multi-rank bits identical.  Only the wire
// prefix rides the collective; the fold region never leaves the rank.
//
// The trailer sections piggy-back the stopping machinery: a per-chunk
// objective partial block (objective-tolerance stopping at round
// granularity) and rank 0's wall clock (replicated wall-budget
// decisions), so enabling those criteria costs zero extra messages — only
// trailing words on the message the round pays for anyway.
// Fault-tolerant solves reserve one more trailer word, the FNV-1a body
// checksum (see seal()), the same zero-extra-messages way.
//
// The buffer is arena-backed by a la::Workspace slot: it is laid out anew
// every round but only ever grows, so steady-state rounds allocate
// nothing.  reduce_start()/reduce_wait() wrap the communicator's
// nonblocking pair and attribute per-section traffic to CommStats.
//
// Not every section is present every round: empty sections occupy zero
// words and are skipped by the accounting.  Appending or removing trailer
// sections never perturbs the reduced bits of the sections before them —
// all backends combine element-wise in a fixed order — which is what lets
// the criteria be toggled without changing the iterates (pinned by
// tests/core/test_round_plane.cpp).
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "dist/comm.hpp"
#include "la/workspace.hpp"

namespace sa::dist {

class RoundMessage {
 public:
  /// Binds the message to a workspace slot (the arena the packed buffer
  /// lives in).  The workspace must outlive the message.
  explicit RoundMessage(la::Workspace& ws, std::size_t slot = 0)
      : ws_(ws), slot_(slot) {}

  RoundMessage(const RoundMessage&) = delete;
  RoundMessage& operator=(const RoundMessage&) = delete;

  /// Declares the trailer (piggy-backed) section sizes for subsequent
  /// rounds.  Sticky: set once when the solve starts, before any layout().
  /// `checksum_words` (0 or 1) reserves the kChecksum section fault
  /// detection rides — see seal().
  void set_trailer_sizes(std::size_t objective_words,
                         std::size_t stop_flag_words,
                         std::size_t checksum_words = 0) {
    trailer_objective_ = objective_words;
    trailer_flags_ = stop_flag_words;
    trailer_checksum_ = checksum_words;
  }

  /// Declares the number of global reduction chunks the body sections are
  /// replicated over.  Sticky, like the trailer sizes; the default (1)
  /// reproduces the legacy single-partial wire byte for byte.
  void set_grouping(std::size_t num_chunks) {
    chunks_ = num_chunks == 0 ? 1 : num_chunks;
  }
  std::size_t num_chunks() const { return chunks_; }

  /// Lays out one round's message and returns the contiguous body span
  /// [gram | dots1 | dots2] of chunk 0 for the fused Gram+dots kernel
  /// (the whole body under G = 1).  Invalidates spans from previous
  /// rounds.  Under G = 1 the trailer is zero-initialised; under G > 1
  /// the whole buffer is (foreign chunk slots must contribute +0.0, and
  /// they hold the previous round's reduced values otherwise).
  std::span<double> layout(std::size_t gram_words, std::size_t dots1_words,
                           std::size_t dots2_words);

  /// Post-reduce view of a section.  Body + objective sections serve the
  /// chunk-folded sums when G > 1 (valid after reduce_wait); stop-flags
  /// and checksum always alias the wire.
  std::span<double> section(RoundSection s) {
    const auto i = static_cast<std::size_t>(s);
    return buffer_.subspan(offset_[i], words_[i]);
  }
  std::span<const double> section(RoundSection s) const {
    const auto i = static_cast<std::size_t>(s);
    return std::span<const double>(buffer_).subspan(offset_[i], words_[i]);
  }
  std::size_t words(RoundSection s) const {
    return words_[static_cast<std::size_t>(s)];
  }
  std::size_t total_words() const { return buffer_.size(); }

  /// The whole packed buffer (wire plus, under G > 1, the fold region).
  std::span<double> packed() { return buffer_; }

  /// Chunk `c`'s slot of a body section (kGram/kDots1/kDots2) on the
  /// wire — where a rank writes the per-chunk partial for a global chunk
  /// it owns.
  std::span<double> chunk_section(RoundSection s, std::size_t c) {
    const auto i = static_cast<std::size_t>(s);
    return buffer_.subspan(c * chunk_stride_ + chunk_offset_[i], words_[i]);
  }

  /// Chunk `c`'s contiguous [dots1 | dots2] half — the state-DEPENDENT
  /// sections la::sampled_dots_range writes after the previous round's
  /// apply, while the Gram triangle may have been packed speculatively a
  /// round earlier.
  std::span<double> chunk_dots(std::size_t c) {
    return buffer_.subspan(c * chunk_stride_ + chunk_offset_[1],
                           words_[1] + words_[2]);
  }

  /// Whole-body convenience under G = 1 (legacy split pack path).
  std::span<double> dots() { return chunk_dots(0); }

  /// The G-chunk objective partial block on the wire (G × objective_words,
  /// chunk-major).  Engines write per-owned-chunk objective partials here;
  /// foreign chunk entries stay +0.0.
  std::span<double> objective_chunks() {
    return buffer_.subspan(chunks_ * chunk_stride_,
                           chunks_ * trailer_objective_);
  }

  /// Writes the kChecksum trailer word (when reserved): the low 32 bits
  /// of this rank's FNV-1a body digest as an exactly-representable
  /// double.  The summed word is the in-band checksum channel a real
  /// transport would carry — it rides the collective and is priced like
  /// any trailer word (perf::costs.flag_words) — while verification uses
  /// the communicator's out-of-band delivery digest (hashes do not
  /// commute with summation).  Call after the body and other trailer
  /// fields are final, before reduce_start.  No-op without the section.
  void seal();

  /// Starts the round's ONE collective (nonblocking) over the wire prefix
  /// and attributes per-section wire traffic to the communicator's
  /// CommStats.
  void reduce_start(Communicator& comm);

  /// Completes the collective; afterwards every wire slot holds the
  /// elementwise sum over ranks, and under G > 1 the chunks are folded
  /// left-to-right in global-chunk order into the fold region section()
  /// serves.  A positive `deadline_seconds` arms the communicator's
  /// timeout detection, and when the checksum trailer is reserved and the
  /// delivery digest enabled, the delivered wire is re-hashed against the
  /// communicator's receipt — CommFailure(kCorruption) before any reduced
  /// bit reaches the solver.
  void reduce_wait(Communicator& comm, double deadline_seconds = 0.0);

  /// Blocking convenience: start + wait.
  void reduce(Communicator& comm) {
    reduce_start(comm);
    reduce_wait(comm);
  }

 private:
  la::Workspace& ws_;
  std::size_t slot_;
  std::span<double> buffer_;
  std::array<std::size_t, kRoundSectionCount> words_{};
  std::array<std::size_t, kRoundSectionCount> offset_{};
  std::array<std::size_t, 3> chunk_offset_{};  // body offsets within a chunk
  std::size_t chunk_stride_ = 0;  // gram + dots1 + dots2 words per chunk
  std::size_t wire_words_ = 0;    // what the collective carries
  std::size_t chunks_ = 1;
  std::size_t trailer_objective_ = 0;
  std::size_t trailer_flags_ = 0;
  std::size_t trailer_checksum_ = 0;
};

}  // namespace sa::dist
