// Ablation: the s / µ / machine tradeoff the paper's design rests on.
//
// Three studies beyond the paper's figures:
//   1. numerical drift vs s — max relative deviation of the SA iterate
//      from the non-SA iterate as s grows (extends Table III);
//   2. modelled best-s crossover vs machine latency — how the optimal
//      unrolling depth moves from 1 (shared memory) to large values
//      (Ethernet), supporting the paper's Spark remark in §VII;
//   3. µ-vs-s interaction — total speedup of (µ, s) pairs at fixed P,
//      showing that large µ already amortizes latency and leaves less for
//      s to win (the accBCD-vs-accCD gap between Figures 3 and 4).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/registry.hpp"
#include "data/synthetic.hpp"
#include "la/vector_ops.hpp"
#include "perf/scaling.hpp"

namespace {

void drift_vs_s() {
  std::printf("\n--- Ablation 1: numerical drift of SA iterates vs s ---\n");
  sa::data::RegressionConfig cfg;
  cfg.num_points = 96;
  cfg.num_features = 48;
  cfg.density = 0.3;
  cfg.support_size = 8;
  cfg.seed = 13;
  const sa::data::Dataset d = sa::data::make_regression(cfg).dataset;

  sa::core::SolverSpec base = sa::core::SolverSpec::make("lasso");
  base.lambda = 0.05;
  base.block_size = 4;
  base.accelerated = true;
  base.max_iterations = 256;
  base.seed = 5;
  const sa::core::SolveResult ref = sa::core::solve(d, base);

  std::printf("%8s %24s\n", "s", "max rel iterate diff");
  for (std::size_t s : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    sa::core::SolverSpec sa_opt = base;
    sa_opt.algorithm = "sa-lasso";
    sa_opt.s = s;
    const sa::core::SolveResult got = sa::core::solve(d, sa_opt);
    std::printf("%8zu %24.3e\n", s, sa::la::max_rel_diff(ref.x, got.x));
  }
  std::printf("(expected: all entries near machine precision — the paper's "
              "stability claim)\n");
}

void best_s_vs_machine() {
  std::printf("\n--- Ablation 2: modelled best s vs machine latency ---\n");
  sa::perf::BcdParams p;
  p.iterations = 1000;
  p.block_size = 1;
  p.density = 0.01;
  p.rows = 1 << 20;
  p.cols = 1 << 15;
  p.processors = 3072;
  const std::vector<std::size_t> candidates{1,  2,  4,  8,   16,  32,
                                            64, 128, 256, 512, 1024};
  std::printf("%-16s %10s %10s\n", "machine", "alpha", "best s");
  for (const auto& machine :
       {sa::dist::MachineParams::shared_memory(),
        sa::dist::MachineParams::cray_xc30(),
        sa::dist::MachineParams::ethernet_cluster()}) {
    const std::size_t best = sa::perf::best_s_bcd(p, candidates, machine);
    std::printf("%-16s %10.2e %10zu\n", machine.name.c_str(), machine.alpha,
                best);
  }
  std::printf("(expected: best s grows with machine latency — the paper's "
              "Spark/latency remark in Section VII)\n");
}

void mu_s_interaction() {
  std::printf("\n--- Ablation 3: total speedup for (mu, s) pairs @ P=3072 "
              "---\n");
  std::printf("%8s", "mu\\s");
  const std::vector<std::size_t> s_values{2, 8, 32, 128};
  for (std::size_t s : s_values) std::printf(" %9zu", s);
  std::printf("\n");
  for (std::size_t mu : {1, 2, 4, 8, 16}) {
    sa::perf::BcdParams p;
    p.iterations = 1000;
    p.block_size = mu;
    p.density = 0.01;
    p.rows = 1 << 20;
    p.cols = 1 << 15;
    p.processors = 3072;
    const auto sweep = sa::perf::bcd_speedup_sweep(
        p, s_values, sa::dist::MachineParams::cray_xc30());
    std::printf("%8zu", mu);
    for (const auto& b : sweep) std::printf(" %8.2fx", b.total);
    std::printf("\n");
  }
  std::printf("(expected: the larger mu is, the smaller the attainable SA "
              "speedup — matches the accCD-vs-accBCD drop between the "
              "paper's reported 2.8-5.1x and 1.2-4.4x ranges)\n");
}

}  // namespace

int main() {
  sa::bench::print_header(
      "Ablation — s/mu/machine tradeoffs behind the SA design",
      "Extends Table III and Figure 4 with drift-vs-s, best-s-vs-latency, "
      "and mu-s interaction studies.");
  drift_vs_s();
  best_s_vs_machine();
  mu_s_interaction();
  return 0;
}
