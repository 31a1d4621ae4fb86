#include "dist/comm.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace sa::dist {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a_accumulate(std::uint64_t hash, const void* data,
                               std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t payload_digest_bytes(std::span<const std::uint8_t> bytes) {
  return fnv1a_accumulate(kFnvOffset, bytes.data(), bytes.size());
}

/// Low 32 bits of the FNV-1a hash as an exactly-representable double —
/// the form checksums take when they ride a summing collective.
double digest_word(std::uint64_t digest) {
  return static_cast<double>(digest & 0xffffffffull);
}

}  // namespace

std::size_t collective_rounds(int ranks) {
  std::size_t rounds = 0;
  int span = 1;
  while (span < ranks) {
    span *= 2;
    ++rounds;
  }
  return rounds;
}

void Communicator::charge_collective(std::size_t payload_words) {
  const std::size_t rounds = collective_rounds(size());
  stats_.collectives += 1;
  stats_.messages += rounds;
  stats_.words += payload_words * rounds;
}

void Communicator::allreduce_sum(std::span<double> data) {
  do_allreduce_sum(data);
  charge_collective(data.size());
}

double Communicator::allreduce_sum_scalar(double value) {
  allreduce_sum(std::span<double>(&value, 1));
  return value;
}

void Communicator::broadcast_bytes(std::vector<std::uint8_t>& bytes,
                                   int root) {
  SA_CHECK(root >= 0 && root < size(),
           "Communicator::broadcast_bytes: root out of range");
  if (size() == 1) return;
  const bool is_root = rank() == root;

  // Header: [length | FNV-1a fold of the length | payload digest], all as
  // exactly-representable 32-bit-range doubles from the root, zeros from
  // everyone else.  Every rank validates the length against its hash fold
  // before allocating, and the reassembled payload against the digest
  // after the chunks — so a dropped chunk or a flipped length never gets
  // silently trusted; all ranks observe the same CommFailure together.
  const std::uint64_t root_length = is_root ? bytes.size() : 0;
  std::array<double, 3> header{};
  if (is_root) {
    header[0] = static_cast<double>(root_length);
    header[1] = digest_word(
        fnv1a_accumulate(kFnvOffset, &root_length, sizeof(root_length)));
    header[2] = digest_word(payload_digest_bytes(bytes));
  }
  allreduce_sum(std::span<double>(header));
  const double total_real = header[0];
  constexpr double kMaxBroadcastBytes = 1ull << 40;  // 1 TiB sanity cap
  if (!(total_real >= 0.0 && total_real <= kMaxBroadcastBytes &&
        total_real == static_cast<double>(
                          static_cast<std::uint64_t>(total_real)))) {
    throw CommFailure("broadcast_bytes: received length header is not a "
                      "valid byte count (corrupted broadcast)");
  }
  const auto total = static_cast<std::uint64_t>(total_real);
  if (digest_word(fnv1a_accumulate(kFnvOffset, &total, sizeof(total))) !=
      header[1]) {
    std::ostringstream os;
    os << "broadcast_bytes: length header failed validation — received "
       << total << " bytes whose checksum does not match the root's "
       << "length word (corrupted broadcast)";
    throw CommFailure(os.str());
  }
  if (!is_root) bytes.assign(total, 0);

  constexpr std::size_t kChunkBytes = 1 << 16;
  std::vector<double> chunk(std::min<std::size_t>(total, kChunkBytes));
  for (std::size_t offset = 0; offset < total; offset += kChunkBytes) {
    const std::size_t count = std::min<std::size_t>(kChunkBytes,
                                                    total - offset);
    for (std::size_t i = 0; i < count; ++i)
      chunk[i] = is_root ? static_cast<double>(bytes[offset + i]) : 0.0;
    allreduce_sum(std::span<double>(chunk.data(), count));
    // Every rank — the root included — adopts the reduced chunk, so a
    // damaged payload desynchronizes nobody: all ranks reassemble the same
    // (possibly wrong) bytes and fail the digest check below together.
    for (std::size_t i = 0; i < count; ++i)
      bytes[offset + i] = static_cast<std::uint8_t>(chunk[i]);
  }
  if (digest_word(payload_digest_bytes(bytes)) != header[2]) {
    std::ostringstream os;
    os << "broadcast_bytes: payload of " << total << " bytes from root "
       << root << " failed checksum validation (dropped or corrupted "
       << "broadcast)";
    throw CommFailure(os.str());
  }
}

void Communicator::note_section(RoundSection s, std::size_t words) {
  if (words == 0) return;
  SectionTraffic& t = stats_.sections[static_cast<std::size_t>(s)];
  t.collectives += 1;
  t.words += words * collective_rounds(size());
}

}  // namespace sa::dist
