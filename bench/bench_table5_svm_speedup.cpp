// Reproduces Table V: SA-SVM-L1 running time and speedup over SVM-L1 at
// the paper's (dataset, P) points — news20.binary @ P=576, rcv1.binary @
// P=240, gisette @ P=3072 — with an s sweep reporting the best setting.
//
// Method: both solvers run for real on a 2-rank thread team over the twin
// (L1 loss, λ = 1, fixed iteration budget standing in for the paper's
// duality-gap-1e-1 budget); metered counters are rescaled to the target P
// and priced on the XC30-like machine (see bench_util.hpp).
//
// Paper findings to reproduce: speedups of 1.4× (rcv1), 2.1× (news20),
// 4× (gisette); larger/denser problems at higher P gain more; best s in
// the 64–128 range.
#include <cstdio>
#include <mutex>
#include <vector>

#include "bench_util.hpp"
#include "core/registry.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"

namespace {

constexpr int kMeasuredRanks = 2;

sa::dist::CommStats run_metered(const sa::data::Dataset& d, std::size_t s,
                                std::size_t h) {
  sa::core::SolverSpec base = sa::core::SolverSpec::make("svm");
  base.lambda = 1.0;
  base.loss = sa::core::SvmLoss::kL1;  // the paper solves the harder L1
  base.max_iterations = h;
  base.seed = 3;
  if (s > 0) {
    base.algorithm = "sa-svm";
    base.s = s;
  }

  const sa::data::Partition cols =
      sa::data::Partition::block(d.num_features(), kMeasuredRanks);
  sa::dist::CommStats out;
  std::mutex lock;
  sa::dist::run_distributed(kMeasuredRanks,
                            [&](sa::dist::Communicator& comm) {
                              const sa::core::SolveResult r =
                                  sa::core::make_solver(comm, d, cols, base)
                                      ->run();
                              if (comm.rank() == 0) {
                                std::scoped_lock guard(lock);
                                out = r.trace.final_stats;
                              }
                            });
  return out;
}

void run_dataset(sa::data::PaperDataset which, double shrink, int target_p,
                 std::size_t h) {
  const sa::data::Dataset d = sa::data::make_paper_twin(
      which, shrink, 42, /*force_classification=*/true);
  std::printf("\n--- %s twin @ P=%d: %zu x %zu, %.3f%% nnz ---\n",
              d.name.c_str(), target_p, d.num_points(), d.num_features(),
              100.0 * d.density());

  const double ref_seconds = sa::bench::modelled_seconds(
      run_metered(d, 0, h), kMeasuredRanks, target_p);
  std::printf("%-16s %14.4fs\n", "SVM-L1", ref_seconds);

  double best_speedup = 0.0;
  std::size_t best_s = 0;
  for (std::size_t s : {16, 32, 64, 128, 256}) {
    const double seconds = sa::bench::modelled_seconds(
        run_metered(d, s, h), kMeasuredRanks, target_p);
    const double speedup = ref_seconds / seconds;
    std::printf("SA-SVM-L1 s=%-4zu %14.4fs  (%.2fx)\n", s, seconds, speedup);
    if (speedup > best_speedup) {
      best_speedup = speedup;
      best_s = s;
    }
  }
  std::printf("best: s=%zu at %.2fx (paper Table V reports 1.4x-4x)\n",
              best_s, best_speedup);
}

}  // namespace

int main() {
  sa::bench::print_header(
      "Table V — SA-SVM-L1 speedups over SVM-L1 at paper scale",
      "Metered 2-rank runs rescaled to the paper's P and priced on an "
      "XC30-like machine.\nExpected: best-s speedups in the paper's "
      "1.4x-4x band, larger for denser/bigger problems.");

  run_dataset(sa::data::PaperDataset::kNews20Binary, 800.0, 576, 4000);
  run_dataset(sa::data::PaperDataset::kRcv1Binary, 40.0, 240, 4000);
  run_dataset(sa::data::PaperDataset::kGisette, 10.0, 3072, 3000);
  return 0;
}
