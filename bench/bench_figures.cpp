// The paper's figures from ONE registry-driven driver.
//
//   bench_figures [convergence|runtime|scaling|all] [--smoke]
//                 [--json out.json]
//   bench_figures comm [--cli PATH] [--baseline-cli PATH] [--json out.json]
//
// Every series is produced through the Solver facade by iterating
// core::registered_algorithms() — no per-figure solver plumbing:
//
//   convergence  objective / duality-gap vs iteration for every registered
//                id (paper Figures 2 and 5), plus the SA-vs-classical
//                agreement check per family;
//   runtime      metered 2-rank runs rescaled to the paper's processor
//                counts and priced on the Cray XC30-like machine (paper
//                Figure 3), with the SA speedup over the classical id;
//   scaling      Table I cost-model strong scaling and speedup-vs-s
//                breakdown (paper Figure 4);
//   comm         wire words per round collective and reduce-wait seconds
//                per round for sa-lasso and sa-svm at P ∈ {1, 2, 3, 4},
//                measured through sa_opt_cli runs — this build's (the
//                sibling binary, or --cli) and, with --baseline-cli,
//                another build's, interleaved run by run, so a change to
//                the reduction wire is measured before and after in one
//                invocation.  Not part of `all`.
//
// --json PATH additionally writes every series the selected figures
// produced as one machine-readable JSON document (plotting scripts and CI
// trend tracking consume this; the stdout tables stay the human surface).
// --smoke shrinks the workloads to seconds (synthetic twins, small H) —
// the mode CI runs.  The full mode runs ONE representative twin per
// partition axis (news20-like for the regression families, w1a-like for
// SVM) at one target P; for the full dataset × P sweeps of the paper's
// figure panels, edit Config / dataset_for — every series goes through
// the same registry loop.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/registry.hpp"
#include "data/libsvm_io.hpp"
#include "data/synthetic.hpp"
#include "perf/scaling.hpp"

namespace {

using sa::core::SolveResult;
using sa::core::SolverSpec;

struct Config {
  bool smoke = false;
  std::string cli;           // comm: sa_opt_cli of this build
  std::string baseline_cli;  // comm: sa_opt_cli of the build compared to
  std::string command;       // this invocation, recorded in the JSON
  std::size_t h = 400;            // inner iterations
  std::size_t trace_every = 100;  // objective cadence
  std::size_t s = 32;             // unrolling depth for sa-* ids
  int target_p = 768;             // paper-scale processor count (runtime)
};

// --json accumulator: each figure runner contributes one named JSON value;
// main() assembles and writes the document.  Hand-rolled on purpose — the
// schema is flat (objects, arrays, numbers, strings) and the container has
// no JSON dependency.
struct JsonSink {
  bool enabled = false;
  std::vector<std::pair<std::string, std::string>> figures;
  void add(const std::string& name, std::string value) {
    if (enabled) figures.emplace_back(name, std::move(value));
  }
};

std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) { return "\"" + s + "\""; }

/// Joins already-serialized JSON values into an array.
std::string jarr(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ",";
    out += items[i];
  }
  return out + "]";
}

bool is_svm_id(const std::string& id) {
  return id == "svm" || id == "sa-svm";
}
bool is_group_id(const std::string& id) {
  return id == "group-lasso" || id == "sa-group-lasso";
}

/// The dataset each algorithm family runs on: a news20-like sparse twin
/// for the regression families, a w1a-like twin for the SVM family
/// (synthetic stand-ins in smoke mode).
const sa::data::Dataset& dataset_for(const std::string& id,
                                     const Config& cfg) {
  static sa::data::Dataset regression, classification;
  if (regression.num_points() == 0) {
    if (cfg.smoke) {
      sa::data::RegressionConfig rc;
      rc.num_points = 120;
      rc.num_features = 60;
      rc.density = 0.3;
      rc.support_size = 8;
      rc.seed = 7;
      regression = sa::data::make_regression(rc).dataset;
      sa::data::ClassificationConfig cc;
      cc.num_points = 100;
      cc.num_features = 80;
      cc.density = 0.3;
      cc.seed = 7;
      classification = sa::data::make_classification(cc);
    } else {
      regression =
          sa::data::make_paper_twin(sa::data::PaperDataset::kNews20, 60.0);
      classification = sa::data::make_paper_twin(
          sa::data::PaperDataset::kW1a, 4.0, 42,
          /*force_classification=*/true);
    }
  }
  return is_svm_id(id) ? classification : regression;
}

/// One spec per registered id, the same knobs across the classical/SA
/// variants of a family so their series are comparable.
SolverSpec spec_for(const std::string& id, const Config& cfg) {
  SolverSpec spec = SolverSpec::make(id)
                        .with_max_iterations(cfg.h)
                        .with_trace_every(cfg.trace_every)
                        .with_seed(7)
                        .with_s(cfg.s);
  if (is_svm_id(id)) {
    spec.with_lambda(1.0).with_loss(sa::core::SvmLoss::kL2);
  } else if (is_group_id(id)) {
    spec.with_lambda(0.05).with_groups(sa::core::GroupStructure::uniform(
        dataset_for(id, cfg).num_features(), 5));
  } else {
    spec.with_lambda(0.05).with_block_size(8).with_acceleration(true);
  }
  return spec;
}

/// The classical counterpart of an sa-* id ("" when `id` is classical).
std::string classical_of(const std::string& id) {
  return id.rfind("sa-", 0) == 0 ? id.substr(3) : std::string();
}

// ---------------------------------------------------------------------
// convergence — Figures 2 and 5
// ---------------------------------------------------------------------

void run_convergence(const Config& cfg, JsonSink& json) {
  sa::bench::print_header(
      "Figures 2 & 5 — convergence vs iterations, every registered id",
      "Objective (Lasso families) / duality gap (SVM family) per trace "
      "point via the Solver facade.\nExpected shape: SA series coincide "
      "with their classical counterparts.");

  std::vector<std::string> labels;
  std::vector<std::vector<std::pair<std::size_t, double>>> series;
  for (const std::string& id : sa::core::registered_algorithms()) {
    const SolveResult r = sa::core::solve(dataset_for(id, cfg),
                                          spec_for(id, cfg));
    labels.push_back(id);
    series.emplace_back();
    for (const auto& p : r.trace.points)
      series.back().emplace_back(p.iteration, p.objective);
  }

  if (json.enabled) {
    std::vector<std::string> items;
    for (std::size_t k = 0; k < labels.size(); ++k) {
      std::vector<std::string> points;
      for (const auto& [it, v] : series[k])
        points.push_back(jarr({jnum(static_cast<double>(it)), jnum(v)}));
      items.push_back("{\"id\":" + jstr(labels[k]) +
                      ",\"points\":" + jarr(points) + "}");
    }
    json.add("convergence", jarr(items));
  }

  std::printf("%12s", "iteration");
  for (const std::string& l : labels) std::printf("  %16s", l.c_str());
  std::printf("\n");
  for (std::size_t it = 0; it <= cfg.h; it += cfg.trace_every) {
    std::printf("%12zu", it);
    for (const auto& s : series) {
      bool found = false;
      double value = 0.0;
      for (const auto& [i, v] : s)
        if (i == it) {
          found = true;
          value = v;
        }
      if (found)
        std::printf("  %16.6g", value);
      else
        std::printf("  %16s", "-");
    }
    std::printf("\n");
  }

  // SA-vs-classical agreement at common iterations, per family.
  std::printf("\nmax |f_SA - f_classical| / max(1, |f_classical|):\n");
  for (std::size_t k = 0; k < labels.size(); ++k) {
    const std::string ref_id = classical_of(labels[k]);
    if (ref_id.empty()) continue;
    std::size_t ref = labels.size();
    for (std::size_t j = 0; j < labels.size(); ++j)
      if (labels[j] == ref_id) ref = j;
    if (ref == labels.size()) continue;
    double worst = 0.0;
    for (const auto& [it, got] : series[k])
      for (const auto& [rit, want] : series[ref])
        if (rit == it)
          worst = std::max(worst, std::abs(want - got) /
                                      std::max(1.0, std::abs(want)));
    std::printf("  %-16s vs %-14s : %.3e\n", labels[k].c_str(),
                ref_id.c_str(), worst);
  }
}

// ---------------------------------------------------------------------
// runtime — Figure 3
// ---------------------------------------------------------------------

void run_runtime(const Config& cfg, JsonSink& json) {
  sa::bench::print_header(
      "Figure 3 — modelled running time at paper scale, every registered "
      "id",
      "Metered 2-rank facade runs, counters rescaled to the target P and "
      "priced on the Cray XC30-like machine.\nExpected shape: sa-* ids "
      "faster than their classical counterparts.");

  constexpr int kMeasuredRanks = 2;
  struct Row {
    std::string id;
    double seconds = 0.0;
    double objective = 0.0;
    std::size_t collectives = 0;
  };
  std::vector<Row> rows;
  for (const std::string& id : sa::core::registered_algorithms()) {
    const SolveResult r = sa::core::solve_on_ranks(
        dataset_for(id, cfg), spec_for(id, cfg), kMeasuredRanks);
    rows.push_back({id,
                    sa::bench::modelled_seconds(r.trace.final_stats,
                                                kMeasuredRanks, cfg.target_p),
                    r.final_objective(), r.stats.collectives});
  }
  std::printf("%-16s %14s %14s %14s %12s\n", "algorithm", "modelled time",
              "final obj", "collectives", "speedup");
  std::vector<std::string> items;
  for (const Row& row : rows) {
    double speedup = 1.0;
    const std::string ref_id = classical_of(row.id);
    for (const Row& ref : rows)
      if (ref.id == ref_id) speedup = ref.seconds / row.seconds;
    std::printf("%-16s %12.4fs %14.6g %14zu %11.2fx\n", row.id.c_str(),
                row.seconds, row.objective, row.collectives, speedup);
    items.push_back(
        "{\"id\":" + jstr(row.id) +
        ",\"modelled_seconds\":" + jnum(row.seconds) +
        ",\"final_objective\":" + jnum(row.objective) +
        ",\"collectives\":" + jnum(static_cast<double>(row.collectives)) +
        ",\"speedup\":" + jnum(speedup) + "}");
  }
  json.add("runtime", jarr(items));
}

// ---------------------------------------------------------------------
// scaling — Figure 4
// ---------------------------------------------------------------------

void run_scaling(const Config& cfg, JsonSink& json) {
  sa::bench::print_header(
      "Figure 4 — cost-model strong scaling and speedup breakdown",
      "Table I formulas priced on the Cray XC30-like machine; the SVM "
      "sweep uses the matching Algorithm 3/4 costs.\nExpected shape: SA "
      "faster everywhere, gap widens with P; speedup vs s rises then "
      "falls.");

  const sa::dist::MachineParams machine =
      sa::dist::MachineParams::cray_xc30();
  const std::vector<std::size_t> s_candidates{1, 2,  4,  8,  16,
                                              32, 64, 128, 256};

  sa::perf::BcdParams bcd;
  bcd.iterations = cfg.smoke ? 200 : 1000;
  bcd.block_size = 1;
  const auto shape = sa::data::paper_shape(sa::data::PaperDataset::kNews20);
  bcd.density = shape.nnz_percent / 100.0;
  bcd.rows = shape.points;
  bcd.cols = shape.features;
  bcd.processors = 192;

  std::printf("\n--- %s strong scaling (accCD vs CA-accCD) ---\n",
              shape.name.c_str());
  std::printf("%10s %14s %14s %10s %8s\n", "P", "accCD [s]", "CA-accCD [s]",
              "speedup", "best s");
  std::vector<std::string> strong_items;
  for (const sa::perf::ScalingPoint& pt : sa::perf::bcd_strong_scaling(
           bcd, {192, 384, 768}, s_candidates, machine)) {
    std::printf("%10d %14.4f %14.4f %9.2fx %8zu\n", pt.processors,
                pt.seconds_non_sa, pt.seconds_sa,
                pt.seconds_non_sa / pt.seconds_sa, pt.best_s);
    strong_items.push_back(
        "{\"processors\":" + jnum(pt.processors) +
        ",\"seconds_non_sa\":" + jnum(pt.seconds_non_sa) +
        ",\"seconds_sa\":" + jnum(pt.seconds_sa) +
        ",\"best_s\":" + jnum(static_cast<double>(pt.best_s)) + "}");
  }
  json.add("strong_scaling", jarr(strong_items));

  bcd.processors = 768;
  std::printf("\n--- speedup breakdown @ P=%d ---\n", bcd.processors);
  std::printf("%8s %10s %16s %14s\n", "s", "total", "communication",
              "computation");
  std::vector<std::string> sweep_items;
  for (const sa::perf::SpeedupBreakdown& b :
       sa::perf::bcd_speedup_sweep(bcd, {2, 4, 8, 16, 32, 64}, machine)) {
    std::printf("%8zu %9.2fx %15.2fx %13.2fx\n", b.s, b.total,
                b.communication, b.computation);
    sweep_items.push_back(
        "{\"s\":" + jnum(static_cast<double>(b.s)) +
        ",\"total\":" + jnum(b.total) +
        ",\"communication\":" + jnum(b.communication) +
        ",\"computation\":" + jnum(b.computation) + "}");
  }
  json.add("bcd_speedup_sweep", jarr(sweep_items));

  sa::perf::SvmParams svm;
  svm.iterations = cfg.smoke ? 1000 : 10000;
  const auto svm_shape = sa::data::paper_shape(sa::data::PaperDataset::kW1a);
  svm.density = svm_shape.nnz_percent / 100.0;
  svm.rows = svm_shape.points;
  svm.cols = svm_shape.features;
  svm.processors = 256;
  std::printf("\n--- %s SVM speedup vs s @ P=%d ---\n",
              svm_shape.name.c_str(), svm.processors);
  std::printf("%8s %10s %16s %14s\n", "s", "total", "communication",
              "computation");
  std::vector<std::string> svm_items;
  for (const sa::perf::SpeedupBreakdown& b : sa::perf::svm_speedup_sweep(
           svm, {2, 4, 8, 16, 32, 64, 128}, machine)) {
    std::printf("%8zu %9.2fx %15.2fx %13.2fx\n", b.s, b.total,
                b.communication, b.computation);
    svm_items.push_back(
        "{\"s\":" + jnum(static_cast<double>(b.s)) +
        ",\"total\":" + jnum(b.total) +
        ",\"communication\":" + jnum(b.communication) +
        ",\"computation\":" + jnum(b.computation) + "}");
  }
  json.add("svm_speedup_sweep", jarr(svm_items));
}

// ---------------------------------------------------------------------
// comm — wire words and reduce-wait per round, before/after
// ---------------------------------------------------------------------

/// One sa_opt_cli run's round-plane meters (rank 0's), parsed from its
/// summary and phase lines.
struct CommRun {
  bool ok = false;
  double words = 0.0;
  double collectives = 0.0;
  double wait_seconds = 0.0;
};

CommRun run_cli(const std::string& command) {
  CommRun run;
  std::FILE* pipe = popen((command + " 2>/dev/null").c_str(), "r");
  if (pipe == nullptr) return run;
  char line[1024];
  bool have_words = false, have_wait = false;
  while (std::fgets(line, sizeof line, pipe) != nullptr) {
    if (const char* w = std::strstr(line, " words=")) {
      const char* c = std::strstr(line, " collectives=");
      have_words = c != nullptr;
      if (have_words) {
        run.words = std::strtod(w + 7, nullptr);
        run.collectives = std::strtod(c + 13, nullptr);
      }
    }
    if (const char* r = std::strstr(line, "reduce-wait ")) {
      run.wait_seconds = std::strtod(r + 12, nullptr);
      have_wait = true;
    }
  }
  run.ok = pclose(pipe) == 0 && have_words && have_wait;
  return run;
}

void run_comm(const Config& cfg, JsonSink& json) {
  sa::bench::print_header(
      "Round-collective wire words and reduce-wait, per build",
      "sa_opt_cli runs on synthetic twins, median of 5 interleaved runs\n"
      "per (build, id, P); words = metered words / collectives (payload\n"
      "times ceil(log2 P) hops), wire = words per hop.");
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "bench_figures_comm";
  fs::create_directories(dir);
  sa::data::RegressionConfig rc;
  rc.num_points = 4000;
  rc.num_features = 2000;
  rc.density = 0.005;
  rc.support_size = 40;
  rc.seed = 7;
  sa::data::ClassificationConfig cc;
  cc.num_points = 2000;
  cc.num_features = 1000;
  cc.density = 0.01;
  cc.seed = 7;
  const std::string lasso_file = (dir / "regression.libsvm").string();
  const std::string svm_file = (dir / "classification.libsvm").string();
  sa::data::write_libsvm_file(lasso_file,
                              sa::data::make_regression(rc).dataset);
  sa::data::write_libsvm_file(svm_file, sa::data::make_classification(cc));

  struct Case {
    std::string id;
    std::string args;
    double rounds;
  };
  const std::vector<Case> cases = {
      {"sa-lasso",
       "sa-lasso " + lasso_file +
           " --mu 4 --s 16 -H 8192 --lambda 0.05 --trace-every 8192",
       8192.0 / 16.0},
      {"sa-svm",
       "sa-svm " + svm_file +
           " --s 4 -H 16384 --lambda 1 --loss l2 --trace-every 16384",
       16384.0 / 4.0}};
  struct Build {
    std::string name;
    std::string cli;
  };
  std::vector<Build> builds;
  if (!cfg.baseline_cli.empty()) builds.push_back({"baseline", cfg.baseline_cli});
  builds.push_back({"this build", cfg.cli});
  constexpr int kReps = 5;

  std::printf("%-10s %-12s %3s %14s %10s %16s\n", "id", "build", "P",
              "words/coll", "wire", "wait us/round");
  std::vector<std::string> items;
  for (const Case& c : cases) {
    for (const int p : {1, 2, 3, 4}) {
      std::vector<std::vector<CommRun>> runs(builds.size());
      for (int rep = 0; rep < kReps; ++rep)
        for (std::size_t b = 0; b < builds.size(); ++b)
          runs[b].push_back(run_cli(builds[b].cli + " " + c.args +
                                    " --ranks " + std::to_string(p)));
      for (std::size_t b = 0; b < builds.size(); ++b) {
        std::vector<double> waits;
        CommRun last;
        for (const CommRun& r : runs[b])
          if (r.ok) {
            waits.push_back(r.wait_seconds / c.rounds);
            last = r;
          }
        if (waits.empty()) {
          std::printf("%-10s %-12s %3d   (sa_opt_cli failed)\n",
                      c.id.c_str(), builds[b].name.c_str(), p);
          continue;
        }
        std::sort(waits.begin(), waits.end());
        const double wait = waits[waits.size() / 2];
        const double per_collective =
            last.collectives > 0 ? last.words / last.collectives : 0.0;
        const double hops = sa::bench::log2_rounds(p);
        const double wire = hops > 0 ? per_collective / hops : 0.0;
        std::printf("%-10s %-12s %3d %14.1f %10.1f %16.2f\n", c.id.c_str(),
                    builds[b].name.c_str(), p, per_collective, wire,
                    1e6 * wait);
        items.push_back("{\"id\":" + jstr(c.id) +
                        ",\"build\":" + jstr(builds[b].name) +
                        ",\"ranks\":" + jnum(p) +
                        ",\"rounds\":" + jnum(c.rounds) +
                        ",\"words_per_collective\":" + jnum(per_collective) +
                        ",\"wire_words\":" + jnum(wire) +
                        ",\"wait_seconds_per_round\":" + jnum(wait) +
                        ",\"runs\":" + jnum(static_cast<double>(waits.size())) +
                        "}");
      }
    }
  }
  fs::remove_all(dir);
  json.add("command", jstr(cfg.command));
  json.add("comm", jarr(items));
}

}  // namespace

int main(int argc, char** argv) {
  std::string figure = "all";
  std::string json_path;
  Config cfg;
  for (int i = 0; i < argc; ++i)
    cfg.command += (i ? " " : "") + std::string(argv[i]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
      cfg.h = 120;
      cfg.trace_every = 40;
      cfg.s = 8;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json requires a path\n");
        return 2;
      }
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--cli") == 0 && i + 1 < argc) {
      cfg.cli = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline-cli") == 0 && i + 1 < argc) {
      cfg.baseline_cli = argv[++i];
    } else {
      figure = argv[i];
    }
  }
  if (figure != "convergence" && figure != "runtime" && figure != "scaling" &&
      figure != "comm" && figure != "all") {
    std::fprintf(stderr,
                 "usage: bench_figures "
                 "[convergence|runtime|scaling|all] [--smoke] "
                 "[--json out.json]\n"
                 "       bench_figures comm [--cli PATH] "
                 "[--baseline-cli PATH] [--json out.json]\n");
    return 2;
  }
  if (cfg.cli.empty())
    cfg.cli = (std::filesystem::path(argv[0]).parent_path() / "sa_opt_cli")
                  .string();

  JsonSink json;
  json.enabled = !json_path.empty();
  if (figure == "convergence" || figure == "all") run_convergence(cfg, json);
  if (figure == "runtime" || figure == "all") run_runtime(cfg, json);
  if (figure == "scaling" || figure == "all") run_scaling(cfg, json);
  if (figure == "comm") run_comm(cfg, json);

  if (json.enabled) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\"smoke\":%s", cfg.smoke ? "true" : "false");
    for (const auto& [name, value] : json.figures)
      std::fprintf(f, ",\n\"%s\":%s", name.c_str(), value.c_str());
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nJSON written to %s\n", json_path.c_str());
  }
  return 0;
}
