// Asynchronous checkpoint writer: the engine's only checkpoint path.
//
// A periodic checkpoint must not stall every rank behind rank 0's file
// write.  The engine serializes collectively (save_state gathers
// partitioned state through the communicator, so all ranks stay in
// lockstep), then rank 0 hands the finalized image to this writer instead
// of touching the disk itself: submit() copies the bytes into an internal
// buffer and wakes a dedicated thread that does the usual atomic tmp +
// rename (io::write_snapshot_bytes), so the torn-file guarantee holds — a
// SIGKILL mid-write leaves either the previous snapshot or the new one.
//
// Back-pressure is skip-and-log, never block: if the previous write is
// still in flight when the next checkpoint round arrives, submit()
// refuses (logging one line to stderr and counting the skip) and the
// solve keeps going — a later checkpoint, or the drain at finish(),
// leaves a valid recent snapshot on disk.  Skipping is rank-0-local and
// has no effect on any other rank's state, so no replication is needed.
//
// Steady state allocates nothing after the first submit: the image
// buffer, the path strings, and the thread persist; ping-pong swaps move
// the pending image to the writer without copying (asserted by
// tests/core/test_steady_state.cpp through the checkpoint-every path).
// All shared state is mutex-protected (the CI ThreadSanitizer job covers
// this class).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace sa::io {

class AsyncCheckpointWriter {
 public:
  /// The disk operation the worker performs; injectable so tests can
  /// block or fail writes deterministically.  Defaults to
  /// io::write_snapshot_bytes (atomic tmp + rename).
  using WriteFn = std::function<void(std::span<const std::uint8_t> image,
                                     const std::string& path,
                                     const std::string& tmp_path)>;

  explicit AsyncCheckpointWriter(WriteFn write = {});

  /// Drains the in-flight write, then stops and joins the thread — RAII,
  /// so exception paths that never reach an explicit drain() still leave
  /// the worker joined and the last submission on disk.
  ~AsyncCheckpointWriter();

  AsyncCheckpointWriter(const AsyncCheckpointWriter&) = delete;
  AsyncCheckpointWriter& operator=(const AsyncCheckpointWriter&) = delete;

  /// Hands one snapshot image to the writer thread.  Never blocks: if a
  /// write is still in flight the submission is skipped — one line is
  /// logged to stderr, skips() grows — and false is returned.  On true,
  /// the bytes were copied; the caller's buffer is free to be reused
  /// immediately.
  bool submit(std::span<const std::uint8_t> image, const std::string& path,
              const std::string& tmp_path);

  /// Blocks until no write is pending or in flight (the terminal
  /// checkpoint is on disk before finish() returns).
  void drain();

  /// True while a submitted write has not yet completed.
  bool busy() const;

  std::size_t writes() const;        ///< completed disk writes
  std::size_t skips() const;         ///< submissions refused (back-pressure)
  std::size_t write_errors() const;  ///< writes that threw (logged, kept going)

 private:
  void worker();

  WriteFn write_;
  mutable std::mutex lock_;
  std::condition_variable cv_;

  // Pending slot (filled by submit) and the worker's write slot; the
  // worker swaps pending into its slot for the disk write and swaps it
  // back afterwards, so the grown buffers always sit where the next
  // submit looks for them (alloc-free steady state).
  std::vector<std::uint8_t> image_;
  std::string path_;
  std::string tmp_path_;
  std::vector<std::uint8_t> writing_image_;
  std::string writing_path_;
  std::string writing_tmp_path_;

  bool pending_ = false;
  bool writing_ = false;
  bool stop_ = false;
  std::size_t writes_ = 0;
  std::size_t skips_ = 0;
  std::size_t errors_ = 0;

  std::thread thread_;  // last member: started after the state above
};

}  // namespace sa::io
