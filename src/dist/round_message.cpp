#include "dist/round_message.hpp"

#include <sstream>

#include "la/vector_ops.hpp"

namespace sa::dist {

void RoundMessage::set_grouping(const common::ReduceGrouping& grouping,
                                std::span<const std::size_t> rank_offsets,
                                int rank) {
  grouping_ = grouping;
  const auto r = static_cast<std::size_t>(rank);
  lo_ = rank_offsets[r];
  hi_ = rank_offsets[r + 1];
  payload_wire_ = grouping.is_tree_partition(rank_offsets);
  depth_ = payload_wire_ ? static_cast<std::size_t>(
                               common::ReduceGrouping::rank_depth(
                                   rank_offsets.size() - 1))
                         : 0;
  node_ = payload_wire_ ? r : 0;
}

std::span<double> RoundMessage::layout(std::size_t gram_words,
                                       std::size_t dots1_words,
                                       std::size_t dots2_words) {
  words_ = {gram_words, dots1_words, dots2_words, trailer_objective_,
            trailer_flags_, trailer_checksum_};
  const std::size_t body = gram_words + dots1_words + dots2_words;
  offset_[0] = 0;
  for (std::size_t i = 1; i < kRoundSectionCount; ++i)
    offset_[i] = offset_[i - 1] + words_[i - 1];
  const std::size_t trailer = trailer_flags_ + trailer_checksum_;
  const std::size_t slots =
      payload_wire_ ? 0 : grouping_.num_chunks() * payload_words();
  wire_words_ = payload_wire_ ? payload_words() + trailer : trailer + slots;
  buffer_ = ws_.doubles(slot_, payload_words() + trailer + slots);
  // The body is overwritten wholesale by the folds (or, on the slotted
  // wire, recomputed by reduce).  Everything past it is cleared: the
  // trailer is written field-by-field by the round skeleton (non-rank-0
  // clocks stay +0.0), and foreign leaf slots must contribute +0.0 — they
  // hold the PREVIOUS round's reduced values otherwise.
  la::fill(buffer_.subspan(body), 0.0);
  return buffer_.first(body);
}

void RoundMessage::seal() {
  if (trailer_checksum_ == 0) return;
  const std::span<double> w = wire();
  const std::uint64_t digest = payload_digest(
      payload_wire_ ? w.first(payload_words()) : w.subspan(trailer_flags_ +
                                                           trailer_checksum_));
  section(RoundSection::kChecksum)[0] =
      static_cast<double>(digest & 0xffffffffull);
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
  if (trailer_checksum_ != 0 && comm.reduce_digest_enabled()) {
    // Re-hash the delivered wire against the communicator's delivery
    // receipt: any bit that changed between the backend handing the sums
    // back and this message consuming them is caught HERE, before
    // apply_round touches solver state.
    const std::uint64_t receipt = comm.last_reduce_digest();
    const std::uint64_t delivered = payload_digest(wire());
    if (receipt != delivered) {
      // sa-lint: allow(alloc): corruption error path, formats then throws
      std::ostringstream os;
      os << "RoundMessage::reduce: reduced payload of " << wire_words_
         << " words failed checksum validation (delivery "
         << "digest " << receipt << ", buffer digest " << delivered << ")";
      throw CommFailure(FailureKind::kCorruption, os.str());
    }
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
