// Thread-team communicator: P ranks as P threads of one process.
//
// ThreadTeam owns a pool of P persistent worker threads; run(task) executes
// `task(comm)` once on every rank and blocks until all ranks return.  The
// collective is a barrier-synchronised shared-memory allreduce over a
// binomial reduction tree: each rank copies its buffer into a per-rank
// accumulator, then ceil(log2 P) barrier-separated rounds combine pairs
// with the fixed pairing of a binomial tree — in round r (step 2^r), rank
// j with j mod 2^(r+1) == 0 accumulates partner j + 2^r.  The pairing is
// fixed, so results are bit-deterministic run-to-run and identical on
// every rank; every rank's read fan-in is bounded to 2 buffers per round,
// and the round count matches the ceil(log2 P) the metering charges.
//
// At P = 2^k the pairing IS the upper k levels of the reduction
// grouping's fold tree (common/grouping.hpp): when rank j sends tree node
// (k, j), acc[j] += acc[j + 2^r] builds exactly the node's parent, which
// is what lets a round message put one payload on the wire and still
// match the serial fold bit for bit.  Every other caller's data is
// exclusive-slot (one nonzero contributor per element, the rest +0.0) or
// integer-exact, so the grouping of its summands cannot show in the bits.
//
// Chunked within-pair combine: for payloads of at least
// tree_chunk_threshold words, the element loop of each absorbing pair is
// split across every rank of the pair's 2^(r+1)-wide subtree — those ranks
// are otherwise idle in round r, having already contributed their data.
// Each helper sums a disjoint element chunk of the same acc[j] += acc[j+s]
// update, so the summation grouping (and hence every output bit) is
// identical to the single-owner loop; only the wall-clock of large-payload
// rounds changes.  Small payloads stay on the single-owner loop — the
// index arithmetic isn't worth it below the threshold.
//
// The collective is blocking: the entry barrier, the tree rounds and the
// copy-out of acc[0] (followed by a barrier that keeps acc[0] stable until
// every rank copied) all happen inside one allreduce_sum call.  No barrier
// has a timeout: the ranks share one process, so a rank cannot die alone,
// and recovering from process death means resuming the last checkpoint.
//
// Barriers block on a condition variable (no spinning), so oversubscribed
// runs — more ranks than cores, the common case in tests — stay cheap.
//
// Thread-safety contract: each ThreadComm belongs to exactly one worker
// thread; ThreadTeam::run may be called repeatedly but not concurrently.
// If a rank throws, the team aborts the remaining ranks at their next
// barrier and run() rethrows the first exception.
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

/// Payload size (words) at and above which the tree allreduce chunks each
/// pair's element loop across the pair's idle subtree ranks.
inline constexpr std::size_t kDefaultTreeChunkWords = 4096;

/// A pool of P worker threads acting as P communicator ranks.
class ThreadTeam {
 public:
  /// Spawns `ranks` persistent workers (ranks >= 1).
  /// `tree_chunk_threshold` is the payload size (words) from which the
  /// tree's within-pair combine is chunked across idle subtree ranks (pass
  /// 1 to force chunking, or a huge value to pin the single-owner loop;
  /// bit-identical either way).
  explicit ThreadTeam(int ranks,
                      std::size_t tree_chunk_threshold = kDefaultTreeChunkWords);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  int size() const { return ranks_; }

  /// Runs `task` once per rank, blocks until every rank returns, and
  /// returns the per-rank metered counters (index == rank).  Rethrows the
  /// first exception any rank raised.
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
