// Versioned, checksummed binary snapshots of solver state.
//
// A snapshot is a flat sequence of named sections over two scalar types
// (f64 and u64), carrying everything a Solver needs to resume a solve
// bitwise-identically to an uninterrupted run: iterates, RNG/sampler
// state, pending tables, the instrumented trace, CommStats, and
// stopping-criterion progress (see EngineBase::save_state).
//
// Wire format (fixed-width little-endian fields, every data block 8-byte
// aligned via zero padding):
//
//   [ 0.. 7]  magic "SAOPTSNP"
//   [ 8..11]  u32 format version (kSnapshotVersion)
//   [12..15]  u32 section count
//   [16..23]  u64 FNV-1a checksum of every byte from offset 24 to the end
//   [24.. ]   algorithm id: u32 length, bytes, zero-pad to 8
//   then per section:
//             u32 name length | u8 kind (0 = f64, 1 = u64) | 3 zero bytes
//             name bytes, zero-pad to 8
//             u64 element count | count × 8 data bytes
//
// The format is rank-count independent: partitioned vectors are gathered
// to full length before they are written, so a snapshot taken on P ranks
// restores into a solver on any rank count (rank 0 owns the file; state
// travels through the Communicator).  It is not endian-portable — resume
// on the architecture family that wrote the file.
//
// SnapshotWriter is reusable and allocation-free in steady state: reset()
// keeps the buffer capacity, so the checkpoint-every path of a long solve
// touches the heap only for its first snapshot (asserted by
// tests/core/test_steady_state.cpp).  SnapshotReader validates magic,
// version, and checksum before anything else, and every accessor
// bounds-checks, so a truncated or corrupted file is rejected with a
// descriptive SnapshotError before any solver state is touched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sa::io {

/// Thrown for every malformed-snapshot condition: bad magic, unsupported
/// version, checksum mismatch, truncation, missing or mis-sized sections,
/// and algorithm/spec mismatches at restore time.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Version history: 1 = initial format; 2 = wider core/stats +
// core/state_words payload (the kChecksum round section and the round
// index); 3 = fixed reduction grouping
// (the core/grouping section recording the global chunk grid every
// cross-rank sum accumulates in — what makes resume rank-count
// invariant).  Older snapshots predate that grouping, so their sums
// cannot be continued bitwise; version 3 readers reject them with a
// message saying so.  4 = plain (unaccelerated) lasso snapshots drop the
// always-zero lasso/y and lasso/y_img sections; version 4 readers reject
// version 3 files with a message saying so.
inline constexpr std::uint32_t kSnapshotVersion = 4;
inline constexpr std::size_t kSnapshotHeaderBytes = 24;
inline constexpr char kSnapshotMagic[8] = {'S', 'A', 'O', 'P',
                                           'T', 'S', 'N', 'P'};

/// Builds a snapshot image in memory.  Sections are appended either whole
/// (add_*) or streaming (begin_* + exactly `count` push calls); finalize()
/// patches the section count and checksum and returns the complete image.
/// reset() rearms the writer without releasing capacity.
class SnapshotWriter {
 public:
  SnapshotWriter() = default;

  /// Clears the writer (keeping capacity) and starts a snapshot for
  /// `algorithm`.  Must be called before the first section.
  void reset(std::string_view algorithm);

  void add_doubles(std::string_view name, std::span<const double> values);
  void add_double(std::string_view name, double value);
  void add_u64s(std::string_view name,
                std::span<const std::uint64_t> values);
  void add_u64(std::string_view name, std::uint64_t value);

  /// Streaming interface: declare the section, then push exactly `count`
  /// values before starting the next section or finalizing.
  void begin_doubles(std::string_view name, std::size_t count);
  void begin_u64s(std::string_view name, std::size_t count);
  void push_double(double value);
  void push_u64(std::uint64_t value);

  /// Completes the image (section count + checksum) and returns it.  The
  /// span aliases internal storage: valid until the next reset().
  /// Idempotent until then.
  std::span<const std::uint8_t> finalize();

 private:
  void begin_section(std::string_view name, std::uint8_t kind,
                     std::size_t count);
  void append(const void* data, std::size_t bytes);
  void pad_to_8();

  std::vector<std::uint8_t> buf_;
  std::uint32_t sections_ = 0;
  std::size_t pending_values_ = 0;  // pushes owed to the open section
  bool started_ = false;
  bool finalized_ = false;
};

/// Parsed, validated snapshot.  parse() copies the section payloads into
/// typed storage, so accessors return properly aligned spans and the
/// source bytes need not outlive the reader.
class SnapshotReader {
 public:
  /// Validates magic, version, and checksum, then the section table;
  /// throws SnapshotError with a descriptive message on any defect.
  static SnapshotReader parse(std::span<const std::uint8_t> bytes);

  /// read_snapshot_bytes + parse.
  static SnapshotReader read_file(const std::string& path);

  const std::string& algorithm() const { return algorithm_; }

  bool has(std::string_view name) const;

  /// Section accessors throw SnapshotError when the section is missing or
  /// has the wrong type; the sized overloads also verify the element
  /// count.
  std::span<const double> doubles(std::string_view name) const;
  std::span<const double> doubles(std::string_view name,
                                  std::size_t count) const;
  std::span<const std::uint64_t> u64s(std::string_view name) const;
  std::span<const std::uint64_t> u64s(std::string_view name,
                                      std::size_t count) const;
  double real(std::string_view name) const;
  std::uint64_t word(std::string_view name) const;

 private:
  struct Section {
    std::string name;
    bool is_reals = false;
    std::vector<double> reals;
    std::vector<std::uint64_t> words;
  };

  const Section& require(std::string_view name) const;

  std::string algorithm_;
  std::vector<Section> sections_;
};

/// FNV-1a 64-bit hash — the snapshot checksum, also used by the engines to
/// fingerprint structural spec fields (group offsets).
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes);
std::uint64_t fnv1a_words(std::span<const std::size_t> words);

/// Reads a whole file; throws SnapshotError (naming the path) on failure.
std::vector<std::uint8_t> read_snapshot_bytes(const std::string& path);

/// Writes a finalized snapshot image atomically: the bytes go to
/// `tmp_path`, which is then renamed over `path`, so a concurrent reader
/// (or a crash mid-write) sees either the previous snapshot or the new
/// one, never a torn file.  Both paths must be on the same filesystem.
/// The raw-image entry point is what the async checkpoint writer's thread
/// calls (io/async_writer.hpp) — the image was copied out of the engine's
/// SnapshotWriter at submit time.
void write_snapshot_bytes(std::span<const std::uint8_t> image,
                          const std::string& path,
                          const std::string& tmp_path);

/// Finalizes `writer`, then write_snapshot_bytes.
void write_snapshot_file(SnapshotWriter& writer, const std::string& path,
                         const std::string& tmp_path);

/// Convenience overload: tmp_path = path + ".tmp".
void write_snapshot_file(SnapshotWriter& writer, const std::string& path);

}  // namespace sa::io
