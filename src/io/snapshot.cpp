#include "io/snapshot.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/annotate.hpp"
#include "common/check.hpp"

namespace sa::io {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

constexpr std::size_t kVersionOffset = 8;
constexpr std::size_t kSectionCountOffset = 12;
constexpr std::size_t kChecksumOffset = 16;

std::size_t padded8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

[[noreturn]] void fail(const std::string& message) {
  throw SnapshotError("snapshot: " + message);
}

/// Bounds-checked little cursor over the raw image.
struct Cursor {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  void need(std::size_t n, const char* what) const {
    if (pos + n > bytes.size()) {
      std::ostringstream os;
      os << "truncated while reading " << what << " (need " << n
         << " bytes at offset " << pos << ", file has " << bytes.size()
         << ")";
      fail(os.str());
    }
  }
  template <typename T>
  T take(const char* what) {
    need(sizeof(T), what);
    T value;
    std::memcpy(&value, bytes.data() + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }
  std::string take_string(std::size_t n, const char* what) {
    need(n, what);
    std::string out(reinterpret_cast<const char*>(bytes.data() + pos), n);
    pos += n;
    return out;
  }
  void skip_pad() { pos = padded8(pos); }
};

}  // namespace

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_words(std::span<const std::size_t> words) {
  std::uint64_t h = kFnvOffset;
  for (const std::size_t w : words) {
    std::uint64_t v = w;
    for (int i = 0; i < 8; ++i) {
      h ^= v & 0xFF;
      h *= kFnvPrime;
      v >>= 8;
    }
  }
  return h;
}

// ---------------------------------------------------------------------
// SnapshotWriter
// ---------------------------------------------------------------------

void SnapshotWriter::append(const void* data, std::size_t bytes) {
  const std::size_t at = buf_.size();
  // The staging buffer keeps its capacity across snapshots, so this
  // resize allocates only until the first snapshot's high-water mark.
  // sa-lint: allow(alloc): capacity retained across snapshots
  buf_.resize(at + bytes);
  std::memcpy(buf_.data() + at, data, bytes);
}

void SnapshotWriter::pad_to_8() {
  static constexpr std::uint8_t zeros[8] = {};
  const std::size_t want = padded8(buf_.size());
  if (want > buf_.size()) append(zeros, want - buf_.size());
}

void SnapshotWriter::reset(std::string_view algorithm) {
  buf_.clear();
  sections_ = 0;
  pending_values_ = 0;
  started_ = true;
  finalized_ = false;

  append(kSnapshotMagic, sizeof(kSnapshotMagic));
  const std::uint32_t version = kSnapshotVersion;
  append(&version, sizeof(version));
  const std::uint32_t count_placeholder = 0;
  append(&count_placeholder, sizeof(count_placeholder));
  const std::uint64_t checksum_placeholder = 0;
  append(&checksum_placeholder, sizeof(checksum_placeholder));

  const auto len = static_cast<std::uint32_t>(algorithm.size());
  append(&len, sizeof(len));
  append(algorithm.data(), algorithm.size());
  pad_to_8();
}

void SnapshotWriter::begin_section(std::string_view name, std::uint8_t kind,
                                   std::size_t count) {
  SA_CHECK(started_ && !finalized_,
           "SnapshotWriter: reset() the writer before adding sections");
  SA_CHECK(pending_values_ == 0,
           "SnapshotWriter: previous section is still owed pushes");
  const auto len = static_cast<std::uint32_t>(name.size());
  append(&len, sizeof(len));
  static constexpr std::uint8_t zeros[3] = {};
  append(&kind, sizeof(kind));
  append(zeros, sizeof(zeros));
  append(name.data(), name.size());
  pad_to_8();
  const auto n = static_cast<std::uint64_t>(count);
  append(&n, sizeof(n));
  pending_values_ = count;
  ++sections_;
}

void SnapshotWriter::begin_doubles(std::string_view name,
                                   std::size_t count) {
  begin_section(name, 0, count);
}

void SnapshotWriter::begin_u64s(std::string_view name, std::size_t count) {
  begin_section(name, 1, count);
}

void SnapshotWriter::push_double(double value) {
  SA_STEADY_STATE;
  SA_CHECK(pending_values_ > 0,
           "SnapshotWriter::push_double: no section values owed");
  --pending_values_;
  append(&value, sizeof(value));
}

void SnapshotWriter::push_u64(std::uint64_t value) {
  SA_STEADY_STATE;
  SA_CHECK(pending_values_ > 0,
           "SnapshotWriter::push_u64: no section values owed");
  --pending_values_;
  append(&value, sizeof(value));
}

void SnapshotWriter::add_doubles(std::string_view name,
                                 std::span<const double> values) {
  begin_doubles(name, values.size());
  append(values.data(), values.size() * sizeof(double));
  pending_values_ = 0;
}

void SnapshotWriter::add_double(std::string_view name, double value) {
  add_doubles(name, std::span<const double>(&value, 1));
}

void SnapshotWriter::add_u64s(std::string_view name,
                              std::span<const std::uint64_t> values) {
  begin_u64s(name, values.size());
  append(values.data(), values.size() * sizeof(std::uint64_t));
  pending_values_ = 0;
}

void SnapshotWriter::add_u64(std::string_view name, std::uint64_t value) {
  add_u64s(name, std::span<const std::uint64_t>(&value, 1));
}

std::span<const std::uint8_t> SnapshotWriter::finalize() {
  SA_CHECK(started_, "SnapshotWriter::finalize: nothing written");
  SA_CHECK(pending_values_ == 0,
           "SnapshotWriter::finalize: open section is still owed pushes");
  if (!finalized_) {
    std::memcpy(buf_.data() + kSectionCountOffset, &sections_,
                sizeof(sections_));
    const std::uint64_t checksum = fnv1a(std::span<const std::uint8_t>(
        buf_.data() + kSnapshotHeaderBytes,
        buf_.size() - kSnapshotHeaderBytes));
    std::memcpy(buf_.data() + kChecksumOffset, &checksum, sizeof(checksum));
    finalized_ = true;
  }
  return std::span<const std::uint8_t>(buf_.data(), buf_.size());
}

// ---------------------------------------------------------------------
// SnapshotReader
// ---------------------------------------------------------------------

SnapshotReader SnapshotReader::parse(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kSnapshotHeaderBytes) {
    std::ostringstream os;
    os << "truncated: " << bytes.size() << " bytes is smaller than the "
       << kSnapshotHeaderBytes << "-byte header";
    fail(os.str());
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    fail("bad magic — not a sa-opt snapshot file");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + kVersionOffset, sizeof(version));
  if (version == 2) {
    // Pre-grouping snapshots are structurally readable but semantically
    // uncontinuable: their sums were accumulated per-rank, not in the
    // fixed global chunk grid, so a bitwise resume is impossible.
    fail("format version 2 predates the fixed reduction grouping "
         "(core/grouping, format version 3) — its sums were accumulated "
         "per-rank and cannot be continued bitwise; re-checkpoint with "
         "this build");
  }
  if (version == 3) {
    fail("format version 3 predates format version 4, whose plain-mode "
         "lasso snapshots carry no lasso/y or lasso/y_img section; "
         "re-checkpoint with this build");
  }
  if (version != kSnapshotVersion) {
    std::ostringstream os;
    os << "unsupported format version " << version << " (this build reads "
       << "version " << kSnapshotVersion << ")";
    fail(os.str());
  }
  std::uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, bytes.data() + kChecksumOffset,
              sizeof(stored_checksum));
  const std::uint64_t computed = fnv1a(bytes.subspan(kSnapshotHeaderBytes));
  if (stored_checksum != computed) {
    fail("checksum mismatch — the file is corrupted or truncated");
  }
  std::uint32_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + kSectionCountOffset,
              sizeof(section_count));

  Cursor cur{bytes, kSnapshotHeaderBytes};
  SnapshotReader reader;
  const auto id_len = cur.take<std::uint32_t>("algorithm id length");
  reader.algorithm_ = cur.take_string(id_len, "algorithm id");
  cur.skip_pad();

  // The count sits outside the checksummed region, so bound it by what
  // the remaining bytes can hold before reserving: a section takes at
  // least its name length, kind + padding, and element count (16 bytes).
  constexpr std::size_t kMinSectionBytes = 16;
  const std::size_t remaining =
      bytes.size() > cur.pos ? bytes.size() - cur.pos : 0;
  if (section_count > remaining / kMinSectionBytes) {
    std::ostringstream os;
    os << "section count " << section_count << " exceeds what the "
       << remaining << " remaining bytes can hold";
    fail(os.str());
  }
  reader.sections_.reserve(section_count);
  for (std::uint32_t s = 0; s < section_count; ++s) {
    const auto name_len = cur.take<std::uint32_t>("section name length");
    const auto kind = cur.take<std::uint8_t>("section kind");
    cur.take<std::uint8_t>("section padding");
    cur.take<std::uint8_t>("section padding");
    cur.take<std::uint8_t>("section padding");
    Section section;
    section.name = cur.take_string(name_len, "section name");
    cur.skip_pad();
    const auto count = cur.take<std::uint64_t>("section element count");
    if (count > bytes.size() / 8) {
      std::ostringstream os;
      os << "section '" << section.name << "' claims " << count
         << " elements — larger than the file";
      fail(os.str());
    }
    cur.need(count * 8, "section data");
    // An empty section's vector has a null data(), and memcpy with a null
    // pointer is undefined even for zero bytes.
    if (kind == 0) {
      section.is_reals = true;
      section.reals.resize(count);
      if (count > 0)
        std::memcpy(section.reals.data(), bytes.data() + cur.pos, count * 8);
    } else if (kind == 1) {
      section.words.resize(count);
      if (count > 0)
        std::memcpy(section.words.data(), bytes.data() + cur.pos, count * 8);
    } else {
      std::ostringstream os;
      os << "section '" << section.name << "' has unknown kind "
         << static_cast<int>(kind);
      fail(os.str());
    }
    cur.pos += count * 8;
    for (const Section& existing : reader.sections_) {
      if (existing.name == section.name)
        fail("duplicate section '" + section.name + "'");
    }
    reader.sections_.push_back(std::move(section));
  }
  return reader;
}

SnapshotReader SnapshotReader::read_file(const std::string& path) {
  return parse(read_snapshot_bytes(path));
}

bool SnapshotReader::has(std::string_view name) const {
  for (const Section& section : sections_)
    if (section.name == name) return true;
  return false;
}

const SnapshotReader::Section& SnapshotReader::require(
    std::string_view name) const {
  for (const Section& section : sections_)
    if (section.name == name) return section;
  fail("missing section '" + std::string(name) + "'");
}

std::span<const double> SnapshotReader::doubles(
    std::string_view name) const {
  const Section& section = require(name);
  if (!section.is_reals)
    fail("section '" + std::string(name) + "' holds words, not doubles");
  return section.reals;
}

std::span<const double> SnapshotReader::doubles(std::string_view name,
                                                std::size_t count) const {
  const std::span<const double> values = doubles(name);
  if (values.size() != count) {
    // sa-lint: allow(alloc): error path, formats the message fail() throws
    std::ostringstream os;
    os << "section '" << name << "' has " << values.size()
       << " elements, expected " << count;
    // sa-lint: allow(alloc): error path, fail() throws with this message
    fail(os.str());
  }
  return values;
}

std::span<const std::uint64_t> SnapshotReader::u64s(
    std::string_view name) const {
  const Section& section = require(name);
  if (section.is_reals)
    fail("section '" + std::string(name) + "' holds doubles, not words");
  return section.words;
}

std::span<const std::uint64_t> SnapshotReader::u64s(
    std::string_view name, std::size_t count) const {
  const std::span<const std::uint64_t> values = u64s(name);
  if (values.size() != count) {
    // sa-lint: allow(alloc): error path, formats the message fail() throws
    std::ostringstream os;
    os << "section '" << name << "' has " << values.size()
       << " elements, expected " << count;
    // sa-lint: allow(alloc): error path, fail() throws with this message
    fail(os.str());
  }
  return values;
}

double SnapshotReader::real(std::string_view name) const {
  return doubles(name, 1)[0];
}

std::uint64_t SnapshotReader::word(std::string_view name) const {
  return u64s(name, 1)[0];
}

// ---------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------

std::vector<std::uint8_t> read_snapshot_bytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    fail("cannot open '" + path + "': " + std::strerror(errno));
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0)
    bytes.insert(bytes.end(), chunk, chunk + got);
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) fail("error while reading '" + path + "'");
  return bytes;
}

void write_snapshot_file(SnapshotWriter& writer, const std::string& path,
                         const std::string& tmp_path) {
  write_snapshot_bytes(writer.finalize(), path, tmp_path);
}

void write_snapshot_bytes(std::span<const std::uint8_t> image,
                          const std::string& path,
                          const std::string& tmp_path) {
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    fail("cannot create '" + tmp_path + "': " + std::strerror(errno));
  }
  const std::size_t written =
      std::fwrite(image.data(), 1, image.size(), file);
  const bool flushed = std::fflush(file) == 0;
  std::fclose(file);
  if (written != image.size() || !flushed) {
    std::remove(tmp_path.c_str());
    fail("short write to '" + tmp_path + "'");
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const std::string reason = std::strerror(errno);
    std::remove(tmp_path.c_str());
    fail("cannot rename '" + tmp_path + "' over '" + path +
         "': " + reason);
  }
}

void write_snapshot_file(SnapshotWriter& writer, const std::string& path) {
  write_snapshot_file(writer, path, path + ".tmp");
}

}  // namespace sa::io
