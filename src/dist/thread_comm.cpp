#include "dist/thread_comm.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/annotate.hpp"
#include "common/check.hpp"

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace sa::dist {

namespace internal {

/// Thrown into ranks parked at a barrier when a sibling rank failed; only
/// used to unwind the worker back to its loop, never surfaced to callers.
struct TeamAborted {};

/// Pauses a waiter polls the barrier generation before parking: about
/// 5 µs at ~20 ns per x86 `pause`.  Enough to catch a partner a few cache
/// misses behind; every pause beyond that is CPU time the solve's other
/// threads (or an oversubscribed team's runnable ranks) do not get.
constexpr int kSpinPauses = 256;

struct TeamState {
  explicit TeamState(int rank_count)
      : ranks(rank_count),
        levels(static_cast<int>(collective_rounds(rank_count))),
        slots(rank_count),
        scratch(rank_count,
                std::vector<double>(static_cast<std::size_t>(levels) *
                                    kAllreduceFoldBlock)),
        stats(rank_count) {}

  const int ranks;
  const int levels;

  // Spin-then-park barrier.  The generation only moves when a barrier
  // completes or the team aborts, so a waiter that read it before
  // arriving is released exactly by the next change.
  std::atomic<int> arrived{0};
  std::atomic<std::uint32_t> generation{0};
  std::atomic<bool> aborted{false};

  // Allreduce workspace: the callers' published spans (read in place by
  // every rank's fold), the shared result (grow-only, resized in barrier
  // A's completion) and per-rank fold scratch (sized for the tree depth
  // at construction).
  std::vector<std::span<double>> slots;
  std::vector<double> result;
  std::vector<std::vector<double>> scratch;
  bool length_mismatch = false;

  // Task dispatch (once per run, so a mutex and condition variables).
  std::mutex mu;
  std::condition_variable cv;       // task dispatch + shutdown
  std::condition_variable done_cv;  // run() completion
  std::uint64_t epoch = 0;
  bool shutdown = false;
  const std::function<void(ThreadComm&)>* task = nullptr;
  int finished = 0;
  std::vector<CommStats> stats;
  std::exception_ptr first_error;
};

namespace {

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Waits until every rank arrives; the last arriver runs `completion`
/// before releasing the team.  Throws TeamAborted if the team failed
/// before or while this rank waited.
template <typename Completion>
void barrier(TeamState& s, Completion&& completion) {
  // Read the generation before arriving: it cannot move until this rank
  // has arrived, so any later change releases this barrier (or aborts).
  const std::uint32_t gen = s.generation.load();
  if (s.aborted.load()) throw TeamAborted{};
  if (s.arrived.fetch_add(1) + 1 == s.ranks) {
    s.arrived.store(0);
    completion();
    s.generation.fetch_add(1);
    s.generation.notify_all();
    return;
  }
  for (int i = 0; i < kSpinPauses && s.generation.load() == gen; ++i)
    cpu_relax();
  while (s.generation.load() == gen) s.generation.wait(gen);
  if (s.aborted.load()) throw TeamAborted{};
}

/// Fills tree node (j, level) — the binomial-tree sum of inputs
/// [j, j + 2^level) ∩ [0, P) — for elements [begin, begin + len), and
/// returns a pointer to it: the input itself for a leaf, otherwise `dst`.
/// A right subtree goes to `scratch` (one block per level below).
const double* fold_node(const std::vector<std::span<double>>& inputs, int j,
                        int level, std::size_t begin, std::size_t len,
                        double* dst, double* scratch) {
  if (level == 0) return inputs[j].data() + begin;
  const int half = 1 << (level - 1);
  if (j + half >= static_cast<int>(inputs.size()))
    return fold_node(inputs, j, level - 1, begin, len, dst, scratch);
  const double* left =
      fold_node(inputs, j, level - 1, begin, len, dst, scratch);
  const double* right = fold_node(inputs, j + half, level - 1, begin, len,
                                  scratch, scratch + kAllreduceFoldBlock);
  for (std::size_t i = 0; i < len; ++i) dst[i] = left[i] + right[i];
  return dst;
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

  s.slots[r] = data;
  internal::barrier(s, [&] {  // barrier A
    s.length_mismatch = false;
    for (const std::span<double>& slot : s.slots)
      if (slot.size() != n) s.length_mismatch = true;
    // Every rank finished the previous copy-out before arriving here.
    // sa-lint: allow(alloc): grow-only result, warm rounds never resize
    if (!s.length_mismatch && s.result.size() < n) s.result.resize(n);
  });
  SA_CHECK(!s.length_mismatch,
           "ThreadComm::allreduce_sum: buffer length differs across ranks");

  // Reduce-scatter: fold this rank's slice of every input, block by block.
  const std::size_t end = n * (r + 1) / p;
  double* scratch = s.scratch[r].data();
  for (std::size_t b = n * r / p; b < end; b += kAllreduceFoldBlock) {
    const std::size_t len = std::min(kAllreduceFoldBlock, end - b);
    internal::fold_node(s.slots, 0, s.levels, b, len, s.result.data() + b,
                        scratch);
  }
  internal::barrier(s, [] {});  // barrier B

  // Allgather: every rank reads the whole result.
  std::copy_n(s.result.begin(), n, data.begin());
}

ThreadTeam::ThreadTeam(int ranks) : ranks_(ranks) {
  SA_CHECK(ranks >= 1, "ThreadTeam: need at least one rank");
  state_ = std::make_unique<internal::TeamState>(ranks);
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
  s.arrived.store(0);
  s.aborted.store(false);
  s.first_error = nullptr;
  s.stats.assign(ranks_, CommStats{});
  ++s.epoch;
  s.cv.notify_all();
  s.done_cv.wait(lock, [&] { return s.finished == s.ranks; });
  s.task = nullptr;
  lock.unlock();
  // What the ranks freed (a solver's local rows, dense stage and round
  // message) sits in their threads' malloc arenas, resident once glibc's
  // dynamic mmap threshold has risen past it.  A later task reuses it
  // only if its thread lands on the same arena, so a process that runs
  // solve after solve would peak at one RSS level or another from run to
  // run.  One trim of every arena, after the last rank is done, gives the
  // pages back and keeps the peak on one level.
#ifdef __GLIBC__
  malloc_trim(0);
#endif
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
      // Wake every parked rank; each sees the flag and unwinds.
      s.aborted.store(true);
      s.generation.fetch_add(1);
      s.generation.notify_all();
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
