// Thread-team communicator: P ranks as P threads of one process.
//
// ThreadTeam owns a pool of P persistent worker threads; run(task) executes
// `task(comm)` once on every rank and blocks until all ranks return.
//
// The collective is a zero-copy reduce-scatter + allgather with two
// barriers at every P:
//
//   1. each rank publishes its caller's span in a per-rank slot (no copy);
//   2. barrier A — the last arriver checks that every slot has the same
//      length and grows the one shared result buffer (grow-only);
//   3. rank r folds its contiguous slice [n·r/P, n·(r+1)/P) of all P
//      inputs into the result, reading the other ranks' buffers in place;
//   4. barrier B — every rank copies the whole result into its buffer.
//
// Every element is summed with the fixed pairing of a binomial tree — in
// round `step`, input j ≡ 0 (mod 2·step) absorbs j + step — so results are
// bit-deterministic run-to-run and identical on every rank, whichever rank
// folds the element.  At P = 2^k the pairing IS the upper k levels of the
// reduction grouping's fold tree (common/grouping.hpp): when rank j sends
// tree node (k, j), input j + input j+step builds exactly the node's
// parent, which is what lets a round message put one payload on the wire
// and still match the serial fold bit for bit.  Every other caller's data
// is exclusive-slot (one nonzero contributor per element, the rest +0.0)
// or integer-exact, so the grouping of its summands cannot show in the
// bits.
//
// There is no exit barrier.  A rank rewrites its slot, its own buffer or
// the shared result only after a barrier that every reader of the
// previous collective has passed:
//   * slot r and rank r's buffer are read by the other ranks' folds
//     between A and B; rank r writes its buffer (the copy-out) only after
//     B, and republishes its slot only after returning from B;
//   * the result is read by every rank's copy-out after B; it is resized
//     in the completion of the NEXT collective's barrier A and written by
//     the next folds after that A, and a rank arrives at A only once its
//     copy-out has finished.
//
// Metering is unchanged: Communicator charges ceil(log2 P) rounds per
// collective because it models the paper's MPI tree, not this backend.
//
// Barriers spin, then park: a waiter polls the barrier's generation word
// for a short fixed budget (~5 µs — long enough to catch a partner that
// is a few cache misses behind, short enough that oversubscribed teams,
// more ranks than cores, yield the core quickly), then blocks in
// std::atomic::wait.  The last arriver runs the completion, resets the
// arrival count, bumps the generation and wakes every parked rank.  No
// barrier has a timeout: the ranks share one process, so a rank cannot
// die alone, and recovering from process death means resuming the last
// checkpoint.
//
// Thread-safety contract: each ThreadComm belongs to exactly one worker
// thread; ThreadTeam::run may be called repeatedly but not concurrently.
// If a rank throws, the team aborts the remaining ranks at their next
// barrier (parked ranks are woken) and run() rethrows the first exception.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "dist/comm.hpp"

namespace sa::dist {

namespace internal {
struct TeamState;  // shared barrier + reduction workspace (thread_comm.cpp)
}  // namespace internal

/// One rank's endpoint into a ThreadTeam.
class ThreadComm final : public Communicator {
 public:
  int rank() const override { return rank_; }
  int size() const override { return size_; }

 protected:
  void do_allreduce_sum(std::span<double> data) override;

 private:
  friend class ThreadTeam;
  ThreadComm(internal::TeamState& state, int rank, int size)
      : state_(state), rank_(rank), size_(size) {}

  internal::TeamState& state_;
  int rank_ = 0;
  int size_ = 1;
};

/// Elements a rank folds per block of its slice: the fold keeps at most
/// ceil(log2 P) blocks of partial sums in per-rank scratch.
inline constexpr std::size_t kAllreduceFoldBlock = 512;

/// A pool of P worker threads acting as P communicator ranks.
class ThreadTeam {
 public:
  /// Spawns `ranks` persistent workers (ranks >= 1).
  explicit ThreadTeam(int ranks);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  int size() const { return ranks_; }

  /// Runs `task` once per rank, blocks until every rank returns, and
  /// returns the per-rank metered counters (index == rank).  Rethrows the
  /// first exception any rank raised.  On glibc it then returns the heap
  /// pages the ranks freed to the OS (one `malloc_trim`).
  std::vector<CommStats> run(const std::function<void(ThreadComm&)>& task);

 private:
  void worker_loop(int rank);

  int ranks_ = 1;
  std::unique_ptr<internal::TeamState> state_;
  std::vector<std::thread> workers_;
};

/// Convenience wrapper: one-shot team running `task` on `ranks` ranks;
/// returns the per-rank counters.
std::vector<CommStats> run_distributed(
    int ranks, const std::function<void(Communicator&)>& task);

}  // namespace sa::dist
