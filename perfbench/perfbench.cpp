// perfbench — the end-to-end benchmark of sa-opt, with a traced per-layer
// run.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --references <file>
//   perfbench --write-references <file> --work-dir <dir>
//
// perfbench/run.py builds this binary and passes the last two flags.
//
// A run generates its workload's LIBSVM file from the seed, then times
// whole setups (parse + partition + ThreadTeam spawn + make_solver on every
// rank) and whole solves (first Solver::step until finish() has returned on
// every rank) on the thread-backed communicator, checks every result, and
// prints one JSON object as its last line of output.  With --trace 0 it
// reports the end-to-end metrics; with --trace 1 it reports the per-layer
// metrics, read from spans the benchmark records around the public calls
// into data, core, dist, la and io, from the CommStats meters the library
// keeps, and from two probes (allreduce and Gram kernel).
//
// Noise control, each answering a measured cause of run-to-run spread:
//   * thread budget — ranks × OpenMP threads ≤ 2 on every workload and
//     never more than the CPUs this process may use, so the harness and
//     the checkpoint writer thread keep a core;
//   * no millisecond-scale or tail timing is an end-to-end metric: setups
//     parse a multi-megabyte file, solves last about a second, tails and
//     per-round times are per-layer only;
//   * host drift — every run repeats its solves and reports the fastest
//     (solve_s) and the least CPU (solve_cpu_s): on a shared host a slow
//     phase can cover most of a run, moving its median solve by up to 50%
//     while the fastest solve moved about 10%.  setup_s is the median of
//     several setups.  A fixed ALU loop is timed at the start and end of
//     the run (host.calib_ms), which shows some slow host phases.
//
// Every workload stops at its own tolerance.  The tolerance is checked
// once per `cadence` iterations and sits between the values every
// instance reaches at two consecutive checks, so all instances of a
// workload stop at the same check: the work per solve does not change
// with the seed, only the data does.
#include <omp.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/grouping.hpp"
#include "core/local_data.hpp"
#include "core/registry.hpp"
#include "data/libsvm_io.hpp"
#include "data/synthetic.hpp"
#include "dist/cost_model.hpp"
#include "dist/thread_comm.hpp"
#include "la/batch_view.hpp"
#include "la/simd/simd.hpp"
#include "la/workspace.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sa;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Integer field `key` (e.g. "VmHWM:", "Threads:") of /proc/self/status.
long proc_status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line))
    if (line.compare(0, len, key) == 0) return std::atol(line.c_str() + len);
  return 0;
}

/// Resets VmHWM to the current RSS, so the peak that follows belongs to the
/// setups and solves, not to the data generator that ran before them.
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0)
    return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  return CPU_COUNT(&set);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Median of five timings of a fixed multiply-xorshift chain (~25 ms on a
/// 3 GHz core).  The work never changes, so a reading that moves between
/// the start and the end of a run, or between runs, is the host's doing.
double host_calibration_ms() {
  static volatile std::uint64_t sink = 0;
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 20'000'000; ++i)
      x = (x * 6364136223846793005ull + 1442695040888963407ull) ^ (x >> 29);
    sink = sink ^ x;
    ms.push_back(1e3 * seconds_since(t));
  }
  return quantile(ms, 0.5);
}

// ---------------------------------------------------------------------------
// Spans: kept in memory per rank (no allocation while recording beyond the
// reserved capacity), written out as JSON Lines when the run ends.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  SpanLog(bool on, int ranks) : on_(on), epoch_(Clock::now()), spans_(ranks) {
    if (on_)
      for (auto& v : spans_) v.reserve(1 << 16);
  }

  /// Opens a span on `rank`'s track; returns its id (kNone when off).
  std::size_t open(int rank, const char* name, std::size_t parent = kNone) {
    if (!on_) return kNone;
    spans_[rank].push_back({name, parent, since_epoch(Clock::now()), -1.0});
    return spans_[rank].size() - 1;
  }

  void close(int rank, std::size_t id) {
    if (id != kNone) spans_[rank][id].end = since_epoch(Clock::now());
  }

  /// Adds a finished span measured by the caller.
  void record(int rank, const char* name, std::size_t parent,
              Clock::time_point start, Clock::time_point end) {
    if (on_)
      spans_[rank].push_back({name, parent, since_epoch(start), since_epoch(end)});
  }

  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t r = 0; r < spans_.size(); ++r)
      for (std::size_t i = 0; i < spans_[r].size(); ++i) {
        const Span& s = spans_[r][i];
        out << "{\"rank\":" << r << ",\"id\":" << i << ",\"name\":\""
            << s.name << "\",\"parent\":"
            << (s.parent == kNone ? -1 : static_cast<long>(s.parent))
            << ",\"start_s\":" << s.start << ",\"end_s\":" << s.end << "}\n";
      }
  }

 private:
  struct Span {
    const char* name;
    std::size_t parent;
    double start;
    double end;
  };
  double since_epoch(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  bool on_;
  Clock::time_point epoch_;
  std::vector<std::vector<Span>> spans_;
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// Every seed selects one of this many generated instances per workload;
/// references.txt stores each instance's final objective.
constexpr unsigned kInstances = 16;

struct Workload {
  const char* name;
  const char* algorithm;
  data::PaperDataset twin;
  double shrink;
  int ranks;
  int omp_threads;
  std::size_t block_size;  // µ (Lasso only)
  std::size_t s;
  double lambda;
  double tolerance;              // objective (Lasso) or duality-gap (SVM)
  std::size_t cadence;           // iterations between tolerance checks
  std::size_t max_iterations;    // safety cap: reaching it is a failure
  std::size_t checkpoint_every;  // 0 = no checkpoints
};

// Why these three: each stresses a different layer and bypasses another.
//   lasso-sparse-p2  bandwidth-bound: 64-member Gram over a 64-chunk wire,
//                    ~137k words per collective — dist/RoundMessage.
//                    Stops at the 2nd check (iteration 4,112).
//   lasso-dense-p1   kernel-bound: dense 64-member Gram tiles, one rank,
//                    no collective — la/la::simd; dist is bypassed.
//                    Stops at the 2nd check (iteration 1,032).
//   svm-ckpt-p2      latency-bound: 4-member rounds of ~900 words — core
//                    round skeleton and ThreadComm barriers; the only
//                    workload that writes snapshots (io).  Stops at the
//                    first check after the start (iteration 20,480).
const Workload kWorkloads[] = {
    {"lasso-sparse-p2", "sa-lasso", data::PaperDataset::kNews20, 1.0, 2, 1,
     4, 16, 0.1, 0.575, 2048, 65536, 0},
    {"lasso-dense-p1", "sa-lasso", data::PaperDataset::kEpsilon, 20.0, 1, 2,
     8, 8, 0.1, 1e-6, 512, 16384, 0},
    {"svm-ckpt-p2", "sa-svm", data::PaperDataset::kRcv1Binary, 1.0, 2, 1, 1,
     4, 1.0, 44000.0, 20480, 204800, 2048},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

bool is_svm(const Workload& w) { return std::string_view(w.algorithm) == "sa-svm"; }

core::StopReason expected_stop(const Workload& w) {
  return is_svm(w) ? core::StopReason::kGapTolerance
                   : core::StopReason::kObjectiveTolerance;
}

core::SolverSpec spec_for(const Workload& w, unsigned instance,
                          const std::string& checkpoint_path) {
  core::SolverSpec spec = core::SolverSpec::make(w.algorithm)
                              .with_lambda(w.lambda)
                              .with_s(w.s)
                              .with_seed(7 + instance)
                              .with_trace_every(w.cadence)
                              .with_max_iterations(w.max_iterations);
  if (is_svm(w))
    spec.with_gap_tolerance(w.tolerance);
  else
    spec.with_block_size(w.block_size).with_objective_tolerance(w.tolerance);
  if (w.checkpoint_every > 0)
    spec.with_checkpoint(checkpoint_path, w.checkpoint_every);
  return spec;
}

/// Scale of the result check: the objective tolerance is relative to
/// max(1, |f|) (as the solver applies it), the SVM gap tolerance absolute.
double check_scale(const Workload& w, double reference) {
  return is_svm(w) ? 1.0 : std::max(1.0, std::abs(reference));
}

/// Writes instance `instance` of `w` as a LIBSVM file; returns its
/// feature count (the parse is told it, so an empty last column cannot
/// shrink the problem).
std::size_t write_instance(const Workload& w, unsigned instance,
                           const std::string& path) {
  const data::Dataset d =
      data::make_paper_twin(w.twin, w.shrink, 1000 + instance);
  data::write_libsvm_file(path, d);
  return d.num_features();
}

// ---------------------------------------------------------------------------
// One workload's setups and solves.
// ---------------------------------------------------------------------------

/// One solve, and the setup before it when the record is a setup rep.
struct Rep {
  bool has_setup = false;
  double setup_s = 0.0;
  double parse_s = 0.0;
  double partition_s = 0.0;
  double spawn_s = 0.0;
  double make_solver_s = 0.0;  // max over ranks
  double solve_s = 0.0;
  double cpu_s = 0.0;
  double finish_s = 0.0;  // max over ranks
  std::size_t iterations = 0;
  std::size_t rounds = 0;  // observed on rank 0 (traced solves only)
  double objective = 0.0;
  core::StopReason stop = core::StopReason::kMaxIterations;
  bool ranks_agree = true;  // objective and stop reason equal on all ranks
  bool thread_budget_ok = true;
  std::vector<dist::CommStats> stats;  // per rank, as finish() reported
};

/// Collective barrier that leaves the metered counters untouched, so the
/// solve's CommStats hold the solve's traffic only.  Going through the
/// communicator (not a std::barrier) keeps ThreadTeam's abort path: if a
/// rank throws, its siblings are released instead of waiting forever.
void rank_barrier(dist::Communicator& comm) {
  const dist::CommStats before = comm.stats();
  comm.allreduce_sum_scalar(0.0);
  comm.set_stats(before);
}

class Bench {
 public:
  Bench(const Workload& w, unsigned instance, std::string data_path,
        std::size_t features, const std::string& checkpoint_path,
        SpanLog& spans)
      : w_(w),
        spec_(spec_for(w, instance, checkpoint_path)),
        data_path_(std::move(data_path)),
        features_(features),
        spans_(spans) {
    round_ms_.reserve(1 << 20);
  }

  const core::SolverSpec& spec() const { return spec_; }
  const data::Dataset& dataset() const { return *dataset_; }
  const data::Partition& partition() const { return partition_; }
  const std::vector<double>& round_ms() const { return round_ms_; }
  std::size_t threads_max() const { return threads_max_; }

  /// A full setup — parse, partition, team spawn, make_solver on every
  /// rank — followed by a solve on the fresh team.
  Rep setup_and_solve(bool traced) {
    Rep rep;
    rep.has_setup = true;
    team_.reset();
    dataset_.reset();
    const std::size_t setup_span = spans_.open(0, "setup");
    const Clock::time_point start = Clock::now();

    std::size_t span = spans_.open(0, "read_libsvm_file", setup_span);
    data::LibsvmReadOptions opts;
    opts.num_features = features_;
    dataset_ = std::make_unique<data::Dataset>(
        data::read_libsvm_file(data_path_, opts));
    spans_.close(0, span);
    rep.parse_s = seconds_since(start);

    Clock::time_point t = Clock::now();
    span = spans_.open(0, "partition_for_ranks", setup_span);
    partition_ = core::partition_for_ranks(*dataset_, spec_, w_.ranks);
    spans_.close(0, span);
    rep.partition_s = seconds_since(t);

    t = Clock::now();
    span = spans_.open(0, "ThreadTeam", setup_span);
    team_ = std::make_unique<dist::ThreadTeam>(w_.ranks);
    spans_.close(0, span);
    rep.spawn_s = seconds_since(t);

    run_team(rep, start, setup_span, traced);
    return rep;
  }

  /// A solve on the team and dataset of the last setup.
  Rep solve(bool traced) {
    Rep rep;
    run_team(rep, Clock::now(), SpanLog::kNone, traced);
    return rep;
  }

  /// Snapshots a solve on this team after `snapshot_after` iterations,
  /// restores the snapshot into a one-rank solver, and runs both to the
  /// end.  Returns false (with `why`) unless both final objectives equal
  /// `expected` bit for bit.
  bool resume_check(double expected, std::size_t snapshot_after,
                    const std::string& snapshot_path,
                    const std::string& resumed_checkpoint_path,
                    double& snapshot_ms, double& restore_ms,
                    std::string& why) {
    std::vector<double> objective(w_.ranks, 0.0);
    team_->run([&](dist::ThreadComm& comm) {
      const int r = comm.rank();
      omp_set_num_threads(w_.omp_threads);
      auto solver = core::make_solver(comm, *dataset_, partition_, spec_);
      solver->step(snapshot_after);
      const Clock::time_point t = Clock::now();
      const std::size_t span = spans_.open(r, "snapshot_to_file");
      solver->snapshot_to_file(snapshot_path);
      spans_.close(r, span);
      if (r == 0) snapshot_ms = 1e3 * seconds_since(t);
      while (!solver->finished()) solver->step(spec_.max_iterations);
      objective[r] = solver->finish().final_objective();
    });

    core::SolverSpec one_rank = spec_;
    if (!one_rank.checkpoint_path.empty())
      one_rank.checkpoint_path = resumed_checkpoint_path;
    dist::SerialComm comm;
    auto solver = core::make_solver(
        comm, *dataset_, core::partition_for_ranks(*dataset_, one_rank, 1),
        one_rank);
    const Clock::time_point t = Clock::now();
    const std::size_t span = spans_.open(0, "restore_from_file");
    solver->restore_from_file(snapshot_path);
    spans_.close(0, span);
    restore_ms = 1e3 * seconds_since(t);
    while (!solver->finished()) solver->step(spec_.max_iterations);
    const double resumed = solver->finish().final_objective();

    for (int r = 0; r < w_.ranks; ++r)
      if (std::memcmp(&objective[r], &expected, sizeof(double)) != 0) {
        why = "snapshotted solve ended at a different objective";
        return false;
      }
    if (std::memcmp(&resumed, &expected, sizeof(double)) != 0) {
      why = "1-rank resume ended at a different objective";
      return false;
    }
    return true;
  }

 private:
  void run_team(Rep& rep, Clock::time_point setup_start,
                std::size_t setup_span, bool traced) {
    const int ranks = w_.ranks;
    std::vector<double> make_s(ranks), finish_s(ranks), objective(ranks);
    std::vector<core::StopReason> stop(ranks);
    std::vector<std::size_t> iterations(ranks);
    std::vector<char> budget_ok(ranks, 0);
    rep.stats.assign(ranks, dist::CommStats{});
    Clock::time_point solve_start;
    double cpu_start = 0.0;

    team_->run([&](dist::ThreadComm& comm) {
      const int r = comm.rank();
      // Before this thread's first parallel region in the library.
      omp_set_num_threads(w_.omp_threads);
      budget_ok[r] = omp_get_max_threads() == w_.omp_threads;

      Clock::time_point t = Clock::now();
      std::size_t span = spans_.open(r, "make_solver", r == 0 ? setup_span
                                                              : SpanLog::kNone);
      std::unique_ptr<core::Solver> solver =
          core::make_solver(comm, *dataset_, partition_, spec_);
      spans_.close(r, span);
      make_s[r] = seconds_since(t);

      rank_barrier(comm);
      if (r == 0) {
        spans_.close(0, setup_span);
        if (rep.has_setup) rep.setup_s = seconds_since(setup_start);
        solve_start = Clock::now();
        cpu_start = process_cpu_seconds();
      }
      const std::size_t solve_span = spans_.open(r, "solve");
      // Round spans come from the per-round observer, not from stepping one
      // round at a time: step(1) would end every call by rolling back the
      // pipeline's speculative plan of the next round, redoing its work.
      Clock::time_point round_start = Clock::now();
      if (traced && r == 0)
        solver->set_observer([&](std::size_t) {
          const Clock::time_point now = Clock::now();
          round_ms_.push_back(
              1e3 * std::chrono::duration<double>(now - round_start).count());
          spans_.record(0, "round", solve_span, round_start, now);
          round_start = now;
          if (++rep.rounds % 256 == 0) sample_threads();
        });
      while (!solver->finished()) solver->step(spec_.max_iterations);
      if (r == 0) sample_threads();
      t = Clock::now();
      span = spans_.open(r, "finish", solve_span);
      const core::SolveResult result = solver->finish();
      spans_.close(r, span);
      finish_s[r] = seconds_since(t);
      spans_.close(r, solve_span);
      rank_barrier(comm);
      if (r == 0) {
        rep.solve_s = seconds_since(solve_start);
        rep.cpu_s = process_cpu_seconds() - cpu_start;
      }
      objective[r] = result.final_objective();
      stop[r] = result.stop_reason;
      iterations[r] = solver->iterations_run();
      rep.stats[r] = result.stats;
    });

    rep.make_solver_s = *std::max_element(make_s.begin(), make_s.end());
    rep.finish_s = *std::max_element(finish_s.begin(), finish_s.end());
    rep.objective = objective[0];
    rep.stop = stop[0];
    rep.iterations = iterations[0];
    for (int r = 0; r < ranks; ++r) {
      rep.ranks_agree = rep.ranks_agree &&
                        std::memcmp(&objective[r], &objective[0],
                                    sizeof(double)) == 0 &&
                        stop[r] == stop[0] && iterations[r] == iterations[0];
      rep.thread_budget_ok = rep.thread_budget_ok && budget_ok[r];
    }
  }

  void sample_threads() {
    threads_max_ = std::max<std::size_t>(
        threads_max_, static_cast<std::size_t>(proc_status_field("Threads:")));
  }

  const Workload& w_;
  core::SolverSpec spec_;
  std::string data_path_;
  std::size_t features_;
  SpanLog& spans_;
  std::unique_ptr<data::Dataset> dataset_;
  data::Partition partition_;
  std::unique_ptr<dist::ThreadTeam> team_;
  std::vector<double> round_ms_;  // traced rounds, rank 0
  std::size_t threads_max_ = 0;
};

// ---------------------------------------------------------------------------
// Probes (traced run only).
// ---------------------------------------------------------------------------

/// p50 microseconds of Communicator::allreduce_sum over `words` words on a
/// fresh ThreadTeam of `ranks` ranks; ranks are aligned before each call.
/// Returns false if a reduction delivered a wrong sum.
bool probe_allreduce(int ranks, std::size_t words, int reps, SpanLog& spans,
                     double& p50_us) {
  p50_us = 0.0;
  if (ranks < 2 || words == 0) return true;
  dist::ThreadTeam team(ranks);
  std::vector<double> us;
  us.reserve(reps);
  bool ok = true;
  const double expected = ranks * (ranks + 1) / 2.0;
  team.run([&](dist::ThreadComm& comm) {
    std::vector<double> buf(words);
    for (int i = 0; i < reps + 5; ++i) {
      std::fill(buf.begin(), buf.end(), 1.0 + comm.rank());
      rank_barrier(comm);
      const Clock::time_point t = Clock::now();
      const std::size_t span = spans.open(comm.rank(), "allreduce_sum");
      comm.allreduce_sum(buf);
      spans.close(comm.rank(), span);
      if (comm.rank() == 0) {
        if (i >= 5) us.push_back(1e6 * seconds_since(t));
        ok = ok && buf.front() == expected && buf.back() == expected;
      }
    }
  });
  p50_us = quantile(us, 0.5);
  return ok;
}

struct GramProbe {
  double p50_ms = 0.0;
  double gflops = 0.0;
  double flops = 0.0;
  double bytes = 0.0;  // computed from array sizes, not measured
  std::size_t samples = 0;
};

/// Times la::sampled_gram_range over rank 0's owned reduction chunks, on a
/// view of the workload's own matrix at its round shape (µ·s members for
/// Lasso, s data points for SVM) — the kernel call a round makes.
GramProbe probe_gram(const Workload& w, const core::SolverSpec& spec,
                     const data::Dataset& ds, const data::Partition& part,
                     SpanLog& spans) {
  const std::size_t k = is_svm(w) ? w.s : w.block_size * w.s;
  la::Workspace ws, scratch;
  std::vector<std::size_t> members(k);
  std::unique_ptr<core::RowBlock> rows;
  std::unique_ptr<core::ColBlock> cols;
  la::BatchView view;
  std::size_t extent = 0;
  if (is_svm(w)) {
    cols = std::make_unique<core::ColBlock>(ds, part, 0);
    for (std::size_t i = 0; i < k; ++i) members[i] = i * (ds.num_points() / k);
    view = cols->view_rows(members, ws);
    extent = ds.num_features();
  } else {
    rows = std::make_unique<core::RowBlock>(ds, part, 0);
    for (std::size_t i = 0; i < k; ++i)
      members[i] = i * (ds.num_features() / k);
    view = rows->view_columns(members, ws);
    extent = ds.num_points();
  }
  const common::ReduceGrouping grouping =
      common::ReduceGrouping::make(extent, spec.reduction_chunk);
  std::vector<double> out(la::fused_buffer_size(k, 0));

  GramProbe g;
  g.flops = static_cast<double>(view.gram_flops());
  g.bytes = static_cast<double>(view.nnz()) * (view.is_dense() ? 8.0 : 16.0);
  std::vector<double> ms;
  const Clock::time_point start = Clock::now();
  while (ms.size() < 2000 && (ms.size() < 20 || seconds_since(start) < 0.5)) {
    const Clock::time_point t = Clock::now();
    const std::size_t span = spans.open(0, "sampled_gram_range");
    for (std::size_t c = 0; c < grouping.num_chunks(); ++c) {
      if (grouping.begin(c) >= part.end(0)) break;
      la::sampled_gram_range(view, grouping.begin(c), grouping.end(c),
                             scratch, out);
    }
    spans.close(0, span);
    ms.push_back(1e3 * seconds_since(t));
  }
  g.p50_ms = quantile(ms, 0.5);
  g.samples = ms.size();
  g.gflops = g.p50_ms > 0.0 ? g.flops / (g.p50_ms * 1e6) : 0.0;
  return g;
}

// ---------------------------------------------------------------------------
// References: "<workload> <instance> <iterations> <objective as %a>".
// ---------------------------------------------------------------------------

struct Reference {
  std::size_t iterations = 0;
  double objective = 0.0;
  bool found = false;
};

Reference load_reference(const std::string& path, std::string_view workload,
                         unsigned instance) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, objective;
    unsigned inst = 0;
    Reference ref;
    if (!(fields >> name >> inst >> ref.iterations >> objective)) continue;
    if (name != workload || inst != instance) continue;
    ref.objective = std::strtod(objective.c_str(), nullptr);
    ref.found = true;
    return ref;
  }
  return {};
}

int write_references(const std::string& path, const fs::path& work_dir) {
  std::ofstream out(path);
  out << "# perfbench reference results: <workload> <instance> <iterations> "
         "<final objective, C99 hex float>\n"
         "# Regenerate with: python3 perfbench/run.py --write-references\n";
  for (const Workload& w : kWorkloads) {
    omp_set_num_threads(w.omp_threads);
    for (unsigned i = 0; i < kInstances; ++i) {
      const std::string file = (work_dir / "reference.libsvm").string();
      const std::size_t features = write_instance(w, i, file);
      SpanLog spans(false, w.ranks);
      Bench bench(w, i, file, features,
                  (work_dir / "reference.ckpt").string(), spans);
      const Rep rep = bench.setup_and_solve(false);
      if (rep.stop != expected_stop(w) || !rep.ranks_agree) {
        std::fprintf(stderr, "%s instance %u stopped by %s\n", w.name, i,
                     core::to_string(rep.stop));
        return 1;
      }
      char objective[64];
      std::snprintf(objective, sizeof(objective), "%a", rep.objective);
      out << w.name << ' ' << i << ' ' << rep.iterations << ' ' << objective
          << '\n';
      std::fprintf(stderr, "%s %u: %zu iterations, objective %.17g\n", w.name,
                   i, rep.iterations, rep.objective);
    }
  }
  fs::remove(work_dir / "reference.libsvm");
  fs::remove(work_dir / "reference.ckpt");
  return out.good() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(num, sizeof(num), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir;
  std::string references;
  std::string write_references;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v);
    else if (flag == "--trace") a.trace = std::atoi(v);
    else if (flag == "--work-dir") a.work_dir = v;
    else if (flag == "--references") a.references = v;
    else if (flag == "--write-references") a.write_references = v;
    else return false;
  }
  if (argc % 2 == 0 || a.work_dir.empty()) return false;
  if (!a.write_references.empty()) return true;
  return !a.workload.empty() && a.seconds > 0.0 &&
         (a.trace == 0 || a.trace == 1) && !a.references.empty();
}

constexpr int kSetupReps = 7;      // the first one's solve is the warm-up
constexpr int kMinTimedSolves = 4;
constexpr int kWireCalls = 200;      // allreduce probe samples per size
constexpr int kPayloadCalls = 1000;

int run(const Args& args) {
  const Workload* wp = find_workload(args.workload);
  if (wp == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  const bool traced = args.trace == 1;
  const int cpus = usable_cpus();
  if (w.ranks * w.omp_threads > cpus) {
    std::fprintf(stderr,
                 "perfbench: %s needs %d ranks x %d OpenMP threads but only "
                 "%d CPUs are usable; refusing to oversubscribe\n",
                 w.name, w.ranks, w.omp_threads, cpus);
    return 3;
  }
  omp_set_num_threads(w.omp_threads);  // before any library parallel region

  const unsigned instance = static_cast<unsigned>(args.seed % kInstances);
  const Reference ref = load_reference(args.references, w.name, instance);
  if (!ref.found) {
    std::fprintf(stderr, "perfbench: no reference for %s instance %u in %s\n",
                 w.name, instance, args.references.c_str());
    return 2;
  }

  const double calib_start_ms = host_calibration_ms();
  const fs::path dir = fs::path(args.work_dir) /
                       ("run-" + std::to_string(static_cast<long>(getpid())));
  fs::create_directories(dir);
  const std::string data_file = (dir / "data.libsvm").string();
  const std::size_t features = write_instance(w, instance, data_file);
  reset_peak_rss();
  std::printf("perfbench %s seed %llu (instance %u): %d rank(s) x %d OpenMP "
              "thread(s), kernel ISA %s, %d usable CPUs\n",
              w.name, static_cast<unsigned long long>(args.seed), instance,
              w.ranks, w.omp_threads,
              la::simd::to_cstring(la::simd::active_isa()), cpus);

  SpanLog spans(traced, w.ranks);
  Bench bench(w, instance, data_file, features, (dir / "solve.ckpt").string(),
              spans);

  std::size_t attempted = 0, failed = 0;
  double first_objective = 0.0;
  bool have_first = false;
  const auto check = [&](const Rep& rep, const char* what) {
    ++attempted;
    std::string why;
    if (!rep.thread_budget_ok) why = "OpenMP thread budget not in effect";
    else if (!rep.ranks_agree) why = "ranks disagree on the result";
    else if (rep.stop != expected_stop(w))
      why = std::string("stopped by ") + core::to_string(rep.stop);
    else if (have_first && std::memcmp(&rep.objective, &first_objective,
                                       sizeof(double)) != 0)
      why = "objective differs from the run's first solve";
    else if (std::abs(rep.objective - ref.objective) >
             w.tolerance * check_scale(w, ref.objective))
      why = "objective outside the tolerance of the stored reference";
    if (!have_first) {
      first_objective = rep.objective;
      have_first = true;
    }
    if (!why.empty()) {
      ++failed;
      std::printf("FAILED %s: %s (objective %.17g, reference %.17g)\n", what,
                  why.c_str(), rep.objective, ref.objective);
    }
  };

  // Setups (each followed by a solve; the first solve is the warm-up).
  const Clock::time_point start = Clock::now();
  std::vector<Rep> setups;
  std::vector<double> solve_s, cpu_s;
  std::vector<Rep> solves;
  const auto timed = [&](Rep rep) {
    check(rep, "timed solve");
    solves.push_back(std::move(rep));
  };
  for (int i = 0; i < kSetupReps; ++i) {
    setups.push_back(bench.setup_and_solve(false));
    if (i == 0)
      check(setups.back(), "warm-up solve");
    else
      timed(setups.back());
  }

  // Untraced solves fill the budget; a traced run gives the second half of
  // it to solves that record a span per round.
  const double untraced_budget = traced ? args.seconds / 2 : args.seconds;
  while (seconds_since(start) < untraced_budget ||
         solves.size() < kMinTimedSolves)
    timed(bench.solve(false));
  std::vector<Rep> traced_solves;
  if (traced) {
    while (seconds_since(start) < args.seconds || traced_solves.size() < 2) {
      traced_solves.push_back(bench.solve(true));
      check(traced_solves.back(), "traced solve");
    }
  }
  for (const Rep& r : solves) {
    solve_s.push_back(r.solve_s);
    cpu_s.push_back(r.cpu_s);
  }

  // Resume check (snapshot-writing workloads): mid-solve snapshot at P
  // ranks, restored at 1 rank, both must end on the same bits.
  double snapshot_ms = 0.0, restore_ms = 0.0;
  std::uintmax_t snapshot_bytes = 0;
  if (w.checkpoint_every > 0) {
    ++attempted;
    std::string why;
    const std::string snap = (dir / "resume.snap").string();
    bool ok = false;
    try {
      ok = bench.resume_check(first_objective, ref.iterations / 2, snap,
                              (dir / "resumed.ckpt").string(), snapshot_ms,
                              restore_ms, why);
      snapshot_bytes = fs::file_size(snap);
    } catch (const std::exception& e) {
      why = e.what();
    }
    if (!ok) {
      ++failed;
      std::printf("FAILED resume check: %s\n", why.c_str());
    }
  }

  // Per-layer meters come from the solve with the median wall time.
  std::vector<const Rep*> by_time;
  for (const Rep& r : solves) by_time.push_back(&r);
  std::sort(by_time.begin(), by_time.end(),
            [](const Rep* a, const Rep* b) { return a->solve_s < b->solve_s; });
  const Rep& typical = *by_time[by_time.size() / 2];
  std::printf("solve_s samples:");
  for (double v : solve_s) std::printf(" %.4f", v);
  std::printf("\n");
  std::printf("timed solves: %zu, fastest %.4f s, median %.4f s, slowest "
              "%.4f s\n",
              solve_s.size(), quantile(solve_s, 0.0), median(solve_s),
              quantile(solve_s, 1.0));
  std::vector<Metric> metrics;
  const double calib_end_ms = host_calibration_ms();
  std::printf("host.calib_ms start %.3f end %.3f\n", calib_start_ms,
              calib_end_ms);
  if (!traced) {
    std::vector<double> setup_s;
    for (const Rep& r : setups) setup_s.push_back(r.setup_s);
    metrics = {
        {"solve_s", quantile(solve_s, 0.0), "s"},
        {"solve_cpu_s", quantile(cpu_s, 0.0), "s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", proc_status_field("VmHWM:") / 1024.0, "MB"},
        {"pass_rate",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
         "ratio"},
    };
  } else {
    std::vector<double> parse, partition, spawn, make, traced_s;
    for (const Rep& r : setups) {
      parse.push_back(r.parse_s);
      partition.push_back(r.partition_s);
      spawn.push_back(r.spawn_s);
      make.push_back(r.make_solver_s);
    }
    for (const Rep& r : traced_solves) traced_s.push_back(r.solve_s);
    const std::vector<dist::CommStats>& st = typical.stats;
    const dist::CommStats& s0 = st[0];
    double pack = 0, apply = 0, wait_max = 0, wait_min = 1e300, ckpt = 0;
    double flops = 0;
    std::size_t ckpt_skips = 0;
    for (const dist::CommStats& s : st) {
      pack = std::max(pack, s.pack_seconds);
      apply = std::max(apply, s.apply_seconds);
      wait_max = std::max(wait_max, s.wait_seconds);
      wait_min = std::min(wait_min, s.wait_seconds);
      ckpt = std::max(ckpt, s.checkpoint_seconds);
      ckpt_skips = std::max(ckpt_skips, s.checkpoint_skips);
      flops += static_cast<double>(s.flops);
    }
    const auto words = [&](std::initializer_list<dist::RoundSection> secs) {
      double n = 0;
      for (dist::RoundSection sec : secs) n += s0.section(sec).words;
      return s0.collectives ? n / s0.collectives : 0.0;
    };
    const double per_collective =
        s0.collectives ? static_cast<double>(s0.words) / s0.collectives : 0.0;
    const std::size_t hops = dist::collective_rounds(w.ranks);
    const std::size_t chunks =
        common::ReduceGrouping::make(is_svm(w) ? features
                                               : bench.dataset().num_points(),
                                     bench.spec().reduction_chunk)
            .num_chunks();
    // Words one rank puts on the wire per collective, and the same payload
    // without the per-chunk slots (what a payload-sized reduction sends).
    const std::size_t wire =
        hops ? static_cast<std::size_t>(std::lround(per_collective / hops)) : 0;
    const std::size_t payload =
        hops ? static_cast<std::size_t>(std::lround(
                   words({dist::RoundSection::kGram, dist::RoundSection::kDots1,
                          dist::RoundSection::kDots2}) /
                   static_cast<double>(hops * chunks)))
             : 0;
    double wire_us = 0, payload_us = 0;
    bool probes_ok =
        probe_allreduce(w.ranks, wire, kWireCalls, spans, wire_us);
    probes_ok = probe_allreduce(w.ranks, payload, kPayloadCalls, spans,
                                payload_us) &&
                probes_ok;
    ++attempted;
    if (!probes_ok) {
      ++failed;
      std::printf("FAILED allreduce probe: wrong sum\n");
    }
    const GramProbe gram = probe_gram(w, bench.spec(), bench.dataset(),
                                      bench.partition(), spans);
    const std::size_t rounds = traced_solves.front().rounds;
    const double model_round_ms =
        rounds ? 1e3 *
                     dist::price(s0, dist::MachineParams::shared_memory())
                         .total_seconds() /
                     static_cast<double>(rounds)
               : 0.0;
    const double untraced = typical.solve_s;
    const double traced_median = median(traced_s);
    metrics = {
        {"data.parse_s", median(parse), "s"},
        {"data.partition_s", median(partition), "s"},
        {"core.make_solver_s", median(make), "s"},
        {"core.iterations", static_cast<double>(typical.iterations), "count"},
        {"core.rounds", static_cast<double>(rounds), "count"},
        {"core.round_ms_p50", quantile(bench.round_ms(), 0.5), "ms"},
        {"core.round_ms_p90", quantile(bench.round_ms(), 0.9), "ms"},
        {"core.round_samples", static_cast<double>(bench.round_ms().size()),
         "count"},
        {"core.pack_s", pack, "s"},
        {"core.apply_s", apply, "s"},
        {"core.finish_s", typical.finish_s, "s"},
        {"dist.team_spawn_s", median(spawn), "s"},
        {"dist.wait_s", wait_max, "s"},
        {"dist.wait_skew_s", wait_max - wait_min, "s"},
        {"dist.collectives", static_cast<double>(s0.collectives), "count"},
        {"dist.words_per_collective", per_collective, "words"},
        {"dist.words.gram", words({dist::RoundSection::kGram}), "words"},
        {"dist.words.dots",
         words({dist::RoundSection::kDots1, dist::RoundSection::kDots2}),
         "words"},
        {"dist.words.trailer",
         words({dist::RoundSection::kObjective, dist::RoundSection::kStopFlags,
                dist::RoundSection::kChecksum}),
         "words"},
        {"dist.allreduce_us_wire", wire_us, "us"},
        {"dist.allreduce_us_payload", payload_us, "us"},
        {"dist.allreduce_payload_words", static_cast<double>(payload),
         "words"},
        {"la.gram_ms", gram.p50_ms, "ms"},
        {"la.gram_gflops", gram.gflops, "GFLOP/s"},
        {"la.gram_flop_per_byte",
         gram.bytes > 0 ? gram.flops / gram.bytes : 0.0, "flop/B"},
        {"la.gram_bytes_computed", gram.bytes, "B"},
        {"la.gram_samples", static_cast<double>(gram.samples), "count"},
        {"la.flops", flops, "flop"},
        {"la.replicated_flops", static_cast<double>(s0.replicated_flops),
         "flop"},
        {"la.isa", static_cast<double>(s0.kernel_isa), "level"},
        {"io.checkpoint_s", ckpt, "s"},
        {"io.checkpoint_skips", static_cast<double>(ckpt_skips), "count"},
        {"io.snapshot_ms", snapshot_ms, "ms"},
        {"io.restore_ms", restore_ms, "ms"},
        {"io.snapshot_bytes", static_cast<double>(snapshot_bytes), "B"},
        {"perf.model_round_ms", model_round_ms, "ms"},
        {"host.calib_ms", calib_start_ms, "ms"},
        {"host.calib_end_ms", calib_end_ms, "ms"},
        {"proc.threads_max", static_cast<double>(bench.threads_max()),
         "count"},
        {"trace.solve_s", traced_median, "s"},
        {"trace.untraced_solve_s", untraced, "s"},
        {"trace.overhead_pct", 100.0 * (traced_median / untraced - 1.0), "%"},
    };
    std::printf("%zu timed solves, %zu traced; allreduce p50s over %d and %d "
                "calls; la.gram bytes are computed from array sizes, "
                "perf.model_round_ms is modelled (shared-memory "
                "alpha-beta-gamma)\n",
                solves.size(), traced_solves.size(), kWireCalls, kPayloadCalls);
    spans.write_jsonl(
        (fs::path(args.work_dir) / (std::string("spans-") + w.name + ".jsonl"))
            .string());
  }
  fs::remove_all(dir);
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir> --references <file>\n"
                 "       perfbench --write-references <file> --work-dir <dir>\n");
    return 2;
  }
  try {
    if (!args.write_references.empty()) {
      fs::create_directories(args.work_dir);
      return write_references(args.write_references, args.work_dir);
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
