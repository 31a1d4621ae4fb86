#include "dist/thread_comm.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/annotate.hpp"
#include "common/check.hpp"

namespace sa::dist {

namespace internal {

/// Thrown into ranks parked at a barrier when a sibling rank failed; only
/// used to unwind the worker back to its loop, never surfaced to callers.
struct TeamAborted {};

struct TeamState {
  TeamState(int rank_count, std::size_t chunk_threshold_)
      : ranks(rank_count),
        tree_chunk_threshold(chunk_threshold_),
        slots(rank_count),
        acc(rank_count),
        stats(rank_count) {}

  const int ranks;
  const std::size_t tree_chunk_threshold;

  std::mutex mu;
  std::condition_variable cv;       // barrier + task dispatch
  std::condition_variable done_cv;  // run() completion

  // Central sense-reversing barrier (blocking, not spinning: teams are
  // routinely oversubscribed — P ranks on fewer cores).
  int arrived = 0;
  std::uint64_t generation = 0;
  bool aborted = false;

  // Allreduce workspace: per-rank input spans (for the length check) and
  // the per-rank tree accumulators (grow-only, so steady-state
  // collectives do not allocate).
  std::vector<std::span<double>> slots;
  std::vector<std::vector<double>> acc;
  bool length_mismatch = false;

  // Task dispatch.
  std::uint64_t epoch = 0;
  bool shutdown = false;
  const std::function<void(ThreadComm&)>* task = nullptr;
  int finished = 0;
  std::vector<CommStats> stats;
  std::exception_ptr first_error;
};

namespace {

/// Waits until every rank arrives; the last arriver runs `completion`
/// under the lock before releasing the team.  Throws TeamAborted if the
/// team failed while this rank waited.
template <typename Completion>
void barrier(TeamState& s, Completion&& completion) {
  std::unique_lock<std::mutex> lock(s.mu);
  if (s.aborted) throw TeamAborted{};
  if (++s.arrived == s.ranks) {
    s.arrived = 0;
    completion();
    ++s.generation;
    s.cv.notify_all();
    return;
  }
  const std::uint64_t gen = s.generation;
  s.cv.wait(lock, [&] { return s.generation != gen || s.aborted; });
  if (s.aborted) throw TeamAborted{};
}

void barrier(TeamState& s) {
  barrier(s, [] {});
}

}  // namespace

}  // namespace internal

void ThreadComm::do_allreduce_sum(std::span<double> data) {
  SA_STEADY_STATE;
  if (size_ == 1) return;  // nothing to combine, no synchronisation needed
  internal::TeamState& s = state_;
  const std::size_t n = data.size();
  const std::size_t p = static_cast<std::size_t>(size_);
  const std::size_t r = static_cast<std::size_t>(rank_);

  // Stage this rank's contribution in its own accumulator (grow-only;
  // writing own storage before the barrier is race-free).
  s.slots[rank_] = data;
  // Grow-only per-rank accumulator: sized by the first round at each
  // length, allocation-free once warmed up.
  // sa-lint: allow(alloc): grow-only accumulator, warm rounds never resize
  if (s.acc[r].size() < n) s.acc[r].resize(n);
  for (std::size_t i = 0; i < n; ++i) s.acc[r][i] = data[i];
  internal::barrier(s, [&] {
    s.length_mismatch = false;
    for (const std::span<double>& slot : s.slots)
      if (slot.size() != n) s.length_mismatch = true;
  });
  SA_CHECK(!s.length_mismatch,
           "ThreadComm::allreduce_sum: buffer length differs across ranks");

  // Binomial-tree reduction: in round `step`, rank j ≡ 0 (mod 2·step)
  // absorbs partner j + step.  The pairing (and hence the summation
  // grouping) is fixed, so the result is bit-deterministic — every rank
  // later reads the same acc[0].  At P = 2^k this is exactly the top k
  // levels of the reduction grouping's fold tree (common/grouping.hpp):
  // rank j holds tree node (k, j), and acc[j] += acc[j + step] forms
  // their parent.
  //
  // For large payloads the within-pair element loop is chunked across the
  // pair's subtree: every rank in [owner, owner + 2·step) has already
  // contributed by round `step` and would otherwise idle, so each sums a
  // disjoint chunk of the same acc[owner] += acc[owner+step] update.
  // Every element is still combined exactly once, by the identical
  // two-term addition — bit-for-bit the single-owner result.
  const bool chunked = n >= s.tree_chunk_threshold;
  for (std::size_t step = 1; step < p; step <<= 1) {
    const std::size_t group = 2 * step;
    const std::size_t owner = r - (r % group);
    if (owner + step < p) {  // this subtree has an absorbing pair
      const std::vector<double>& partner = s.acc[owner + step];
      std::vector<double>& mine = s.acc[owner];
      if (chunked) {
        // Helpers = all subtree ranks present in the team.
        const std::size_t helpers = std::min(group, p - owner);
        const std::size_t lane = r - owner;
        const std::size_t begin = n * lane / helpers;
        const std::size_t end = n * (lane + 1) / helpers;
        for (std::size_t i = begin; i < end; ++i) mine[i] += partner[i];
      } else if (r == owner) {
        for (std::size_t i = 0; i < n; ++i) mine[i] += partner[i];
      }
    }
    internal::barrier(s);
  }
  for (std::size_t i = 0; i < n; ++i) data[i] = s.acc[0][i];
  internal::barrier(s);  // keep acc[0] stable until every rank copied
}

ThreadTeam::ThreadTeam(int ranks, std::size_t tree_chunk_threshold)
    : ranks_(ranks) {
  SA_CHECK(ranks >= 1, "ThreadTeam: need at least one rank");
  SA_CHECK(tree_chunk_threshold >= 1,
           "ThreadTeam: tree chunk threshold must be >= 1");
  state_ = std::make_unique<internal::TeamState>(ranks, tree_chunk_threshold);
  workers_.reserve(ranks);
  for (int r = 0; r < ranks; ++r)
    workers_.emplace_back([this, r] { worker_loop(r); });
}

ThreadTeam::~ThreadTeam() {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->shutdown = true;
    state_->cv.notify_all();
  }
  for (std::thread& t : workers_) t.join();
}

std::vector<CommStats> ThreadTeam::run(
    const std::function<void(ThreadComm&)>& task) {
  internal::TeamState& s = *state_;
  std::unique_lock<std::mutex> lock(s.mu);
  s.task = &task;
  s.finished = 0;
  s.arrived = 0;
  s.aborted = false;
  s.first_error = nullptr;
  s.stats.assign(ranks_, CommStats{});
  ++s.epoch;
  s.cv.notify_all();
  s.done_cv.wait(lock, [&] { return s.finished == s.ranks; });
  s.task = nullptr;
  if (s.first_error) std::rethrow_exception(s.first_error);
  return s.stats;
}

void ThreadTeam::worker_loop(int rank) {
  internal::TeamState& s = *state_;
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(ThreadComm&)>* task = nullptr;
    {
      std::unique_lock<std::mutex> lock(s.mu);
      s.cv.wait(lock, [&] { return s.shutdown || s.epoch != seen_epoch; });
      if (s.shutdown) return;
      seen_epoch = s.epoch;
      task = s.task;
    }
    ThreadComm comm(s, rank, s.ranks);
    try {
      (*task)(comm);
    } catch (const internal::TeamAborted&) {
      // A sibling rank failed; this rank was unwound at a barrier.
    } catch (...) {
      std::lock_guard<std::mutex> lock(s.mu);
      if (!s.first_error) s.first_error = std::current_exception();
      s.aborted = true;
      s.cv.notify_all();
    }
    {
      std::lock_guard<std::mutex> lock(s.mu);
      s.stats[rank] = comm.stats();
      if (++s.finished == s.ranks) s.done_cv.notify_all();
    }
  }
}

std::vector<CommStats> run_distributed(
    int ranks, const std::function<void(Communicator&)>& task) {
  ThreadTeam team(ranks);
  return team.run([&task](ThreadComm& comm) { task(comm); });
}

}  // namespace sa::dist
