// sa_opt_cli — command-line driver for every registered solver.
//
//   $ ./sa_opt_cli --list
//   $ ./sa_opt_cli sa-lasso data.libsvm --lambda 0.1 --mu 8 --s 32 -H 5000
//   $ ./sa_opt_cli svm data.libsvm --loss l2 --gap-tol 1e-4 --ranks 4
//   $ ./sa_opt_cli path data.libsvm --lambdas 20
//
// The mode is an algorithm id from the solver registry (plus the `path`
// meta-mode); `--solver <id>` overrides it, `--list` prints the registry.
// `--ranks P` runs the solve on P thread-backed communicator ranks.  The
// adoption path for real datasets (url, news20, covtype, epsilon, leu,
// w1a, duke, rcv1.binary, gisette from the LIBSVM repository drop in
// directly).  Prints a trace and optionally writes it as CSV.
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <utility>

#include "core/path.hpp"
#include "core/registry.hpp"
#include "core/svm.hpp"
#include "core/trace_io.hpp"
#include "data/libsvm_io.hpp"
#include "data/scaling.hpp"
#include "dist/thread_comm.hpp"
#include "io/snapshot.hpp"
#include "la/simd/simd.hpp"

namespace {

// Every algorithmic default comes from SolverSpec — the single source the
// library, the CLI, and the tests share (sa_opt_cli only adds
// presentation defaults such as the trace cadence).
struct Args {
  std::string mode;
  std::string file;
  sa::core::SolverSpec spec;
  std::size_t s = 0;            // --s N (>= 1; 0 = flag absent): switch
                                // a classical id to its sa-* variant
  int ranks = 1;                // --ranks P (thread-backed communicator)
  std::size_t group_size = 8;   // --group-size (group-lasso ids)
  std::size_t num_lambdas = 20; // path mode
  bool normalize = false;
  std::string trace_csv;        // write trace here when non-empty
  std::string checkpoint;       // periodic snapshot file (rank 0 writes)
  std::size_t checkpoint_every = 1000;  // iterations between snapshots
  std::string resume;           // restore from this snapshot before solving
};

void print_registry() {
  std::printf("registered algorithms:\n");
  for (const std::string& id : sa::core::registered_algorithms()) {
    const sa::core::AlgorithmInfo* info =
        sa::core::SolverRegistry::instance().find(id);
    std::printf("  %-16s %s\n", id.c_str(), info->description.c_str());
  }
  std::printf("  %-16s %s\n", "path",
              "warm-started Lasso regularization path over a lambda grid");
}

[[noreturn]] void usage() {
  const sa::core::SolverSpec defaults;
  std::fprintf(
      stderr,
      "usage: sa_opt_cli <algorithm|path> <file.libsvm> [options]\n"
      "       sa_opt_cli --list\n"
      "  --solver ID     algorithm id (overrides the positional mode)\n"
      "  --list          print the registered algorithm ids and exit\n"
      "  --lambda X      regularization strength (default %g)\n"
      "  --mu N          block size for lasso ids (default %zu)\n"
      "  --s N           SA unrolling depth; with a classical id switches\n"
      "                  to its sa-* variant (default: classical)\n"
      "  -H N            iterations (default %zu)\n"
      "  --trace-every N objective cadence (default 1000)\n"
      "  --accelerated   enable Nesterov acceleration (lasso ids)\n"
      "  --plain         disable Nesterov acceleration (the default)\n"
      "  --loss l1|l2    SVM hinge variant (default %s)\n"
      "  --gap-tol X     SVM duality-gap stop (default off); checked at\n"
      "                  trace points, so it needs --trace-every > 0\n"
      "  --obj-tol X     stop when two round objectives spaced\n"
      "                  --trace-every iterations apart agree (every\n"
      "                  round when tracing is off; SVM ids compare\n"
      "                  trace objectives, so need --trace-every > 0)\n"
      "  --time-budget X wall-clock budget in seconds (default off)\n"
      "  --seed N        sampler seed (default %llu)\n"
      "  --group-size N  uniform group size for group-lasso ids "
      "(default 8)\n"
      "  --ranks P       thread-backed communicator ranks (default 1)\n"
      "  --kernel-isa L  force the SIMD kernel table: scalar|sse2|avx2\n"
      "                  (default: best available; SA_KERNEL_ISA env is\n"
      "                  honored when the flag is absent)\n"
      "  --lambdas N     path grid size, >= 2 (default 20)\n"
      "  --normalize     unit-norm columns before solving\n"
      "  --trace-csv F   write the solver trace to CSV file F\n"
      "  --checkpoint F  write a snapshot to F every --checkpoint-every\n"
      "                  iterations (atomic rename; rank 0 owns the file)\n"
      "  --checkpoint-every N  snapshot cadence (default 1000)\n"
      "  --resume F      restore solver state from snapshot F, then\n"
      "                  continue to -H (bitwise identical to an\n"
      "                  uninterrupted run; pass the same solver flags)\n",
      defaults.lambda, defaults.block_size, defaults.max_iterations,
      defaults.loss == sa::core::SvmLoss::kL1 ? "l1" : "l2",
      static_cast<unsigned long long>(defaults.seed));
  std::exit(2);
}

// Flag values are parsed as whole tokens: a value that is not entirely a
// number, or lies outside the flag's range, is a usage error (exit 2)
// rather than a silently substituted 0 or wrapped-around count.
std::uint64_t parse_count(const std::string& flag, const char* text,
                          std::uint64_t min = 0,
                          std::uint64_t max = UINT64_MAX) {
  const char* end = text + std::strlen(text);
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || v < min || v > max) {
    std::fprintf(stderr,
                 "invalid %s value '%s': expected an integer in "
                 "[%llu, %llu]\n",
                 flag.c_str(), text, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max));
    usage();
  }
  return v;
}

double parse_nonnegative(const std::string& flag, const char* text) {
  const char* end = text + std::strlen(text);
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < 0.0) {
    std::fprintf(stderr,
                 "invalid %s value '%s': expected a finite number >= 0\n",
                 flag.c_str(), text);
    usage();
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args args;
  args.spec.trace_every = 1000;  // CLI presentation default: show progress
  bool solver_flag = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    // Both `--flag value` and `--flag=value` spellings are accepted.
    std::string inline_value;
    bool has_inline = false;
    if (flag.rfind("--", 0) == 0) {
      if (const std::size_t eq = flag.find('=');
          eq != std::string::npos) {
        inline_value = flag.substr(eq + 1);
        flag.resize(eq);
        has_inline = true;
      }
    }
    const auto value = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (flag == "--list") {
      print_registry();
      std::exit(0);
    } else if (flag == "--solver") {
      args.spec.algorithm = value();
      solver_flag = true;
    } else if (flag == "--lambda") {
      args.spec.lambda = parse_nonnegative(flag, value());
    } else if (flag == "--mu") {
      args.spec.block_size = parse_count(flag, value(), 1);
    } else if (flag == "--s") {
      args.s = parse_count(flag, value(), 1);
    } else if (flag == "-H") {
      args.spec.max_iterations = parse_count(flag, value());
    } else if (flag == "--trace-every") {
      args.spec.trace_every = parse_count(flag, value());
    } else if (flag == "--accelerated") {
      args.spec.accelerated = true;
    } else if (flag == "--plain") {
      args.spec.accelerated = false;
    } else if (flag == "--loss") {
      const std::string loss = value();
      if (loss == "l1") args.spec.loss = sa::core::SvmLoss::kL1;
      else if (loss == "l2") args.spec.loss = sa::core::SvmLoss::kL2;
      else usage();
    } else if (flag == "--gap-tol") {
      args.spec.gap_tolerance = parse_nonnegative(flag, value());
    } else if (flag == "--obj-tol") {
      args.spec.objective_tolerance = parse_nonnegative(flag, value());
    } else if (flag == "--time-budget") {
      args.spec.wall_clock_budget = parse_nonnegative(flag, value());
    } else if (flag == "--seed") {
      args.spec.seed = parse_count(flag, value());
    } else if (flag == "--group-size") {
      args.group_size = parse_count(flag, value(), 1);
    } else if (flag == "--ranks") {
      args.ranks = static_cast<int>(parse_count(flag, value(), 1, INT_MAX));
    } else if (flag == "--kernel-isa") {
      const char* name = value();
      sa::la::simd::Isa isa;
      if (!sa::la::simd::parse_isa(name, isa)) {
        std::fprintf(stderr, "unknown --kernel-isa: %s\n", name);
        usage();
      }
      if (!sa::la::simd::set_kernel_isa(isa)) {
        std::fprintf(stderr,
                     "error: --kernel-isa %s is not available on this "
                     "build/machine\n",
                     name);
        std::exit(2);
      }
    } else if (flag == "--lambdas") {
      args.num_lambdas = parse_count(flag, value(), 2);
    } else if (flag == "--normalize") {
      args.normalize = true;
    } else if (flag == "--trace-csv") {
      args.trace_csv = value();
    } else if (flag == "--checkpoint") {
      args.checkpoint = value();
    } else if (flag == "--checkpoint-every") {
      args.checkpoint_every = parse_count(flag, value(), 1);
    } else if (flag == "--resume") {
      args.resume = value();
    } else if (!flag.empty() && flag[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      usage();
    } else if (positional == 0) {
      args.mode = flag;
      ++positional;
    } else if (positional == 1) {
      args.file = flag;
      ++positional;
    } else {
      usage();
    }
  }
  if (args.mode.empty() || args.file.empty()) usage();
  if (!solver_flag && args.mode != "path")
    args.spec.algorithm = args.mode;  // positional mode unless --solver set
  return args;
}

void maybe_write_csv(const Args& args, const sa::core::Trace& trace) {
  if (args.trace_csv.empty()) return;
  sa::core::write_trace_csv_file(args.trace_csv, trace,
                                 sa::dist::MachineParams::cray_xc30());
  std::printf("trace written to %s\n", args.trace_csv.c_str());
}

int run_solver(const Args& args, const sa::data::Dataset& dataset) {
  sa::core::SolverSpec spec = args.spec;
  // Back-compat convenience: `--s N` with a classical id selects the
  // synchronization-avoiding variant, exactly as the old two-function
  // dispatch did.
  if (args.s > 0) {
    if (!spec.is_sa()) spec.algorithm = "sa-" + spec.algorithm;
    spec.s = args.s;
  }
  if (spec.family() == sa::core::SolverFamily::kGroupLasso)
    spec.groups = sa::core::GroupStructure::uniform(dataset.num_features(),
                                                    args.group_size);
  if (!args.checkpoint.empty()) {
    spec.checkpoint_path = args.checkpoint;
    spec.checkpoint_every = args.checkpoint_every;
  }
  // The snapshot's reduction-grouping parameters decide the summation
  // order the continued run must reproduce — surface them alongside the
  // resume notice and on the phase summary line below.
  std::string grouping_note;
  if (!args.resume.empty()) {
    const sa::io::SnapshotReader snap =
        sa::io::SnapshotReader::read_file(args.resume);
    const std::span<const std::uint64_t> g = snap.u64s("core/grouping", 3);
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  ", grouping v%llu chunk %llu of %llu",
                  static_cast<unsigned long long>(g[0]),
                  static_cast<unsigned long long>(g[1]),
                  static_cast<unsigned long long>(g[2]));
    grouping_note = buf;
    std::printf("resuming from %s (reduction grouping v%llu, chunk size "
                "%llu over global extent %llu)\n",
                args.resume.c_str(),
                static_cast<unsigned long long>(g[0]),
                static_cast<unsigned long long>(g[1]),
                static_cast<unsigned long long>(g[2]));
  }

  const sa::core::SolveResult result =
      sa::core::solve_on_ranks(dataset, spec, args.ranks, args.resume);

  const bool svm = spec.family() == sa::core::SolverFamily::kSvm;
  for (const auto& point : result.trace.points)
    std::printf(svm ? "%12zu %16.8e\n" : "%12zu %16.8g\n", point.iteration,
                point.objective);
  std::printf("%s\nstopped: %s after %zu iterations\n",
              sa::core::summarize_trace(result.trace).c_str(),
              sa::core::to_string(result.stop_reason),
              result.trace.iterations_run);
  // Where the round loop spent its wall time (rank 0's meters).
  // Reduce-wait is the whole round collective (waiting for the slowest
  // rank, the combine, the copy-out); checkpoint covers serialization
  // plus the finish() drain — the disk write itself runs on the async
  // writer's thread, and `skips` counts the checkpoints it refused while
  // a previous write was still in flight.
  const sa::dist::CommStats& st = result.stats;
  std::printf("phase seconds: pack %.4f  reduce-wait %.4f  apply %.4f  "
              "checkpoint %.4f  (kernels %s%s)  skips %zu\n",
              st.pack_seconds, st.wait_seconds, st.apply_seconds,
              st.checkpoint_seconds,
              sa::la::simd::to_cstring(
                  static_cast<sa::la::simd::Isa>(st.kernel_isa)),
              grouping_note.c_str(), st.checkpoint_skips);
  if (svm) {
    std::printf("train accuracy: %.2f%%\n",
                100.0 * sa::core::svm_accuracy(dataset.a, dataset.b,
                                               result.x));
  } else {
    std::size_t nnz = 0;
    for (double v : result.x)
      if (v != 0.0) ++nnz;
    std::printf("support: %zu / %zu\n", nnz, result.x.size());
  }
  maybe_write_csv(args, result.trace);
  return 0;
}

int run_path(const Args& args, const sa::data::Dataset& dataset) {
  if (!args.checkpoint.empty() || !args.resume.empty()) {
    std::fprintf(stderr,
                 "error: --checkpoint/--resume apply to single solves; "
                 "path mode does not support them\n");
    return 2;
  }
  sa::core::PathOptions options;
  options.solver = args.spec;  // an explicit --solver sa-lasso is honored
  options.solver.trace_every = 0;  // the path table is the output
  options.num_lambdas = args.num_lambdas;
  options.s = args.s;

  std::printf("%14s %12s %14s\n", "lambda", "support", "objective");
  const auto print = [](const std::vector<sa::core::PathPoint>& path) {
    for (const auto& point : path)
      std::printf("%14.6g %12zu %14.6g\n", point.lambda, point.nonzeros,
                  point.objective);
  };
  if (args.ranks == 1) {
    print(sa::core::lasso_path(dataset, options));
    return 0;
  }
  const sa::data::Partition rows =
      sa::data::Partition::block(dataset.num_points(), args.ranks);
  std::mutex lock;
  std::vector<sa::core::PathPoint> path;
  sa::dist::run_distributed(
      args.ranks, [&](sa::dist::Communicator& comm) {
        auto p = sa::core::lasso_path(comm, dataset, rows, options);
        if (comm.rank() == 0) {
          std::scoped_lock guard(lock);
          path = std::move(p);
        }
      });
  print(path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.mode != "path" &&
        sa::core::SolverRegistry::instance().find(args.spec.algorithm) ==
            nullptr) {
      std::fprintf(stderr, "unknown algorithm '%s'\n",
                   args.spec.algorithm.c_str());
      print_registry();
      return 2;
    }
    sa::data::Dataset dataset = sa::data::read_libsvm_file(args.file);
    std::printf("loaded %s: %zu points x %zu features, %.4f%% nnz\n",
                args.file.c_str(), dataset.num_points(),
                dataset.num_features(), 100.0 * dataset.density());
    if (args.normalize)
      dataset = sa::data::normalize_columns(dataset).first;
    // Every rank owns a block of the partitioned axis (points for the
    // regression families and the path, features for SVM); more ranks
    // than elements is a usage error, not a solve with idle ranks.
    const bool by_rows =
        args.mode == "path" ||
        sa::core::SolverRegistry::instance().require(args.spec.algorithm)
                .axis == sa::core::PartitionAxis::kRows;
    const std::size_t extent =
        by_rows ? dataset.num_points() : dataset.num_features();
    if (static_cast<std::size_t>(args.ranks) > extent) {
      std::fprintf(stderr,
                   "error: --ranks %d exceeds the partitioned extent: %s "
                   "has %zu %s to split across ranks\n",
                   args.ranks, args.file.c_str(), extent,
                   by_rows ? "points" : "features");
      usage();
    }

    if (args.mode == "path") return run_path(args, dataset);
    return run_solver(args, dataset);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
