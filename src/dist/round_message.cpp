#include "dist/round_message.hpp"

#include <algorithm>

#include "la/vector_ops.hpp"

namespace sa::dist {

void RoundMessage::set_grouping(const common::ReduceGrouping& grouping,
                                std::span<const std::size_t> rank_offsets,
                                int rank) {
  grouping_ = grouping;
  const auto r = static_cast<std::size_t>(rank);
  const std::size_t lo = rank_offsets[r];
  const std::size_t hi = rank_offsets[r + 1];
  payload_wire_ = grouping.is_tree_partition(rank_offsets);
  depth_ = payload_wire_ ? static_cast<std::size_t>(
                               common::ReduceGrouping::rank_depth(
                                   rank_offsets.size() - 1))
                         : 0;
  node_ = payload_wire_ ? r : 0;
  // Owned chunks: the tree node's on the payload wire (possibly none when
  // G < P), every chunk meeting [lo, hi) on the slotted wire.
  std::size_t last = 0;
  if (payload_wire_) {
    first_chunk_ = grouping.node_first(depth_, node_);
    last = grouping.node_first(depth_, node_ + 1);
  } else {
    first_chunk_ = lo / grouping.chunk;
    last = hi > lo ? (hi - 1) / grouping.chunk + 1 : first_chunk_;
  }
  bounds_.resize(last - first_chunk_ + 1);
  for (std::size_t c = 0; c < bounds_.size(); ++c)
    bounds_[c] = std::clamp(grouping.begin(first_chunk_ + c), lo, hi) - lo;
}

std::span<double> RoundMessage::layout(std::size_t gram_words,
                                       std::size_t dots1_words,
                                       std::size_t dots2_words) {
  words_ = {gram_words, dots1_words, dots2_words, trailer_objective_,
            trailer_flags_, 0};
  const std::size_t body = gram_words + dots1_words + dots2_words;
  offset_[0] = 0;
  for (std::size_t i = 1; i < kRoundSectionCount; ++i)
    offset_[i] = offset_[i - 1] + words_[i - 1];
  const std::size_t slots =
      payload_wire_ ? 0 : grouping_.num_chunks() * payload_words();
  wire_words_ = payload_wire_ ? payload_words() + trailer_flags_
                              : trailer_flags_ + slots;
  buffer_ = ws_.doubles(slot_, payload_words() + trailer_flags_ + slots);
  // The body is overwritten wholesale by the folds (or, on the slotted
  // wire, recomputed by reduce).  Everything past it is cleared: the
  // trailer is written field-by-field by the round skeleton (non-rank-0
  // clocks stay +0.0), and foreign leaf slots must contribute +0.0 — they
  // hold the PREVIOUS round's reduced values otherwise.
  la::fill(buffer_.subspan(body), 0.0);
  return buffer_.first(body);
}

void RoundMessage::reduce(Communicator& comm) {
  comm.allreduce_sum(wire());
  // Metering reports WIRE words: on the slotted wire every payload
  // section costs G leaf slots.
  const std::size_t g = payload_wire_ ? 1 : grouping_.num_chunks();
  for (std::size_t i = 0; i < kRoundSectionCount; ++i) {
    const std::size_t factor = i <= 3 ? g : 1;  // payload vs trailer
    comm.note_section(static_cast<RoundSection>(i), factor * words_[i]);
  }
  if (payload_wire_) return;  // the binomial tree combined the upper levels
  // Slotted wire: fold the reduced leaf slots from the root into the
  // payload — the same tree, so the bits match the payload wire's.
  const std::size_t p = payload_words();
  grouping_.fold_node(0, 0, buffer_.first(p), fold_scratch(0, p),
                      [&](std::size_t c, std::span<double> out) {
                        la::copy(slot(c), out);
                      });
}

}  // namespace sa::dist
