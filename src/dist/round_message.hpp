// The packed per-round message plane every solver speaks.
//
// One outer round of every algorithm family exchanges exactly ONE
// collective, whose payload is a schema'd, contiguous buffer:
//
//   [ upper(G) | Yᵀỹ | Yᵀz̃ | objective | stop-flags | checksum ]
//    └─ kGram ─┴kDots1┴kDots2┴kObjective─┴─kStopFlags┴─kChecksum┘
//    └────────── payload ───────────────┘└────── trailer ──────┘
//
// section() always serves these offsets.  The payload sections are
// cross-rank sums under the fixed reduction grouping (common/grouping.hpp):
// engines write them through fold_owned(), handing it one writer per
// section group that stages every owned chunk's partial in one call; the
// message decides how the staged partials reach the wire.
//
// Payload wire (the fast path — the rank blocks are tree nodes, see
// ReduceGrouping::is_tree_partition, or no grouping was declared): the
// rank folds the subtree of chunk partials it owns straight into the
// payload, through O(log G) payload-sized scratch levels in a second
// workspace slot (which also holds the staged partials), and the
// collective carries the payload plus the trailer.  The communicator's
// binomial tree combines the upper levels, so nothing is left to do after
// the collective.
//
// Slotted wire (the fallback — any other partition): the buffer grows one
// leaf slot per chunk past the trailer,
//
//   [ payload | stop-flags | checksum ][ slot 0 ] … [ slot G−1 ]
//                          └──────────── wire ────────────────┘
//
// each slot a payload-shaped [gram|dots1|dots2|objective] leaf partial;
// foreign slots stay +0.0, so the allreduce adds exact zeros.  After the
// collective every rank folds the reduced slots from the root into the
// payload with the same fold_node routine.
//
// The trailer sections piggy-back the stopping machinery: the objective
// partial (objective-tolerance stopping at round granularity, folded like
// the Gram) and rank 0's wall clock (replicated wall-budget decisions), so
// enabling those criteria costs zero extra messages — only trailing words
// on the message the round pays for anyway.  Fault-tolerant solves reserve
// one more trailer word, the FNV-1a body checksum (see seal()), the same
// zero-extra-messages way.
//
// The buffer is arena-backed by a la::Workspace slot: it is laid out anew
// every round but only ever grows, so steady-state rounds allocate
// nothing.  reduce() runs the communicator's blocking allreduce over the
// wire and attributes per-section traffic to CommStats.
//
// Not every section is present every round: empty sections occupy zero
// words and are skipped by the accounting.  Appending or removing trailer
// sections never perturbs the reduced bits of the sections before them —
// all backends combine element-wise in a fixed order — which is what lets
// the criteria be toggled without changing the iterates (pinned by
// tests/core/test_round_plane.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "common/grouping.hpp"
#include "dist/comm.hpp"
#include "la/workspace.hpp"

namespace sa::dist {

class RoundMessage {
 public:
  /// Binds the message to workspace slots: `slot` holds the packed
  /// buffer, `fold_slot` the fold's scratch levels (reused per call, so
  /// messages may share it).  The workspace must outlive the message.
  explicit RoundMessage(la::Workspace& ws, std::size_t slot = 0,
                        std::size_t fold_slot = 1)
      : ws_(ws), slot_(slot), fold_slot_(fold_slot) {}

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

  /// Declares the reduction grouping and this rank's block of it:
  /// `rank_offsets` are the replicated partition's P + 1 element
  /// boundaries.  Sticky, like the trailer sizes.  Picks the payload wire
  /// when the blocks are tree nodes, the slotted wire otherwise — every
  /// rank decides identically.  Without a call the message is a plain
  /// payload wire (the caller owns the partials).
  void set_grouping(const common::ReduceGrouping& grouping,
                    std::span<const std::size_t> rank_offsets, int rank);

  /// True when the collective carries one payload (the fast path), false
  /// for the slotted fallback.
  bool payload_wire() const { return payload_wire_; }

  /// Lays out one round's message and returns the contiguous body span
  /// [gram | dots1 | dots2].  Invalidates spans from previous rounds.
  /// Zero-initialises the objective and the trailer (and, on the slotted
  /// wire, every leaf slot: a rank only writes the chunks it owns).
  std::span<double> layout(std::size_t gram_words, std::size_t dots1_words,
                           std::size_t dots2_words);

  /// View of a section — this rank's partial before reduce(), the sum
  /// after it.
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

  /// The whole packed buffer (payload, trailer and any leaf slots).
  std::span<double> packed() { return buffer_; }

  /// Writes this rank's share of the contiguous payload sections
  /// [first, last] (e.g. kGram alone, kDots1..kDots2, or kObjective).
  /// `leaves(bounds, staged)` writes every owned chunk's partial in ONE
  /// call: `bounds` holds the n + 1 rank-local boundaries of the n chunks
  /// this rank owns (chunk c is the element range [bounds[c],
  /// bounds[c + 1]), clipped to the rank's block), and `staged` holds n
  /// blocks of the sections' words, chunk c's at c·words.  On the payload
  /// wire the staged partials fold into the payload through the rank's
  /// subtree; on the slotted wire each is copied into its chunk's slot.
  /// A rank that owns no chunk is not called.
  template <typename Leaves>
  void fold_owned(RoundSection first, RoundSection last, Leaves&& leaves) {
    const std::size_t off = offset_[static_cast<std::size_t>(first)];
    fold_words(off,
               offset_[static_cast<std::size_t>(last)] +
                   words_[static_cast<std::size_t>(last)] - off,
               [&](std::span<double> staged) {
                 leaves(std::span<const std::size_t>(bounds_), staged);
               });
  }

  /// fold_owned for one section of independent words (rows of a vector
  /// partial), in blocks of at most `block` words so the staging holds
  /// n·block words, not n·words.  `leaves(bounds, row_begin, row_end,
  /// staged)` writes every owned chunk's partial of words [row_begin,
  /// row_end), chunk c's at c·(row_end − row_begin).  The fold is
  /// elementwise, so the bits do not depend on the block size.
  template <typename Leaves>
  void fold_owned_rows(RoundSection section, std::size_t block,
                       Leaves&& leaves) {
    const std::size_t off = offset_[static_cast<std::size_t>(section)];
    const std::size_t words = words_[static_cast<std::size_t>(section)];
    for (std::size_t r = 0; r < words; r += block) {
      const std::size_t e = std::min(words, r + block);
      fold_words(off + r, e - r, [&](std::span<double> staged) {
        leaves(std::span<const std::size_t>(bounds_), r, e, staged);
      });
    }
  }

  /// Writes the kChecksum trailer word (when reserved): the low 32 bits
  /// of this rank's FNV-1a body digest as an exactly-representable
  /// double.  The summed word is the in-band checksum channel a real
  /// transport would carry — it rides the collective and is priced like
  /// any trailer word (perf::costs.flag_words) — while verification uses
  /// the communicator's out-of-band delivery digest (hashes do not
  /// commute with summation).  Call after the body and other trailer
  /// fields are final, before reduce().  No-op without the section.
  void seal();

  /// Runs the round's ONE collective over the wire and attributes
  /// per-section wire traffic to the communicator's CommStats; afterwards
  /// every section holds the sum over ranks (on the slotted wire, after
  /// folding the reduced leaf slots from the root).  A round tag and
  /// deadline armed with Communicator::tag_round apply to this
  /// collective.  When the checksum trailer is reserved and the delivery
  /// digest enabled, the delivered wire is re-hashed against the
  /// communicator's receipt — CommFailure(kCorruption) before any
  /// reduced bit reaches the solver.
  void reduce(Communicator& comm);

 private:
  /// Stages every owned chunk's partial of the buffer words
  /// [off, off + words) through `write(staged)` and folds them (payload
  /// wire) or copies them into the leaf slots (slotted wire).
  template <typename Write>
  void fold_words(std::size_t off, std::size_t words, Write&& write) {
    const std::size_t n = bounds_.size() - 1;
    const std::size_t levels =
        payload_wire_ ? grouping_.fold_levels(depth_) : 0;
    const std::span<double> scratch =
        ws_.doubles(fold_slot_, (n + levels) * words);
    const std::span<double> staged = scratch.first(n * words);
    if (n > 0) write(staged);
    const auto leaf = [&](std::size_t c) {
      return staged.subspan((c - first_chunk_) * words, words);
    };
    if (payload_wire_) {
      grouping_.fold_node(depth_, node_, buffer_.subspan(off, words),
                          scratch.subspan(n * words),
                          [&](std::size_t c, std::span<double> out) {
                            const std::span<double> in = leaf(c);
                            std::copy(in.begin(), in.end(), out.begin());
                          });
      return;
    }
    for (std::size_t c = first_chunk_; c < first_chunk_ + n; ++c) {
      const std::span<double> in = leaf(c);
      std::copy(in.begin(), in.end(), slot(c).begin() + off);
    }
  }

  std::size_t payload_words() const { return offset_[4]; }
  std::span<double> wire() {
    return payload_wire_ ? buffer_.first(wire_words_)
                         : buffer_.subspan(payload_words(), wire_words_);
  }
  std::span<double> slot(std::size_t c) {
    const std::size_t p = payload_words();
    return buffer_.subspan(p + trailer_flags_ + trailer_checksum_ + c * p, p);
  }
  std::span<double> fold_scratch(std::size_t depth, std::size_t words) {
    return ws_.doubles(fold_slot_, grouping_.fold_levels(depth) * words);
  }

  la::Workspace& ws_;
  std::size_t slot_;
  std::size_t fold_slot_;
  std::span<double> buffer_;
  std::array<std::size_t, kRoundSectionCount> words_{};
  std::array<std::size_t, kRoundSectionCount> offset_{};
  std::size_t wire_words_ = 0;  // what the collective carries
  std::size_t trailer_objective_ = 0;
  std::size_t trailer_flags_ = 0;
  std::size_t trailer_checksum_ = 0;

  // Grouping: on the payload wire this rank's tree node (depth_, node_) —
  // the root for an undeclared one — and the chunks it owns: chunks
  // [first_chunk_, first_chunk_ + n) with rank-local boundaries bounds_
  // (n + 1 entries; the undeclared grouping owns one empty chunk).
  common::ReduceGrouping grouping_;
  bool payload_wire_ = true;
  std::size_t depth_ = 0;
  std::size_t node_ = 0;
  std::size_t first_chunk_ = 0;
  std::vector<std::size_t> bounds_ = {0, 0};
};

}  // namespace sa::dist
