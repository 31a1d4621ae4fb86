// Reproduces Table III: final relative objective error of the SA methods
// vs their non-SA counterparts, |f_nonSA − f_SA| / f_nonSA, on the leu,
// covtype, and news20 twins.
//
// Paper finding to reproduce: every entry sits at machine precision
// (~2.2e-16), i.e. the recurrence rearrangement is numerically stable even
// at s = 1000.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/objective.hpp"
#include "core/registry.hpp"
#include "data/synthetic.hpp"

namespace {

double final_objective(const sa::data::Dataset& d, std::size_t mu,
                       bool accelerated, std::size_t s, std::size_t h) {
  sa::core::SolverSpec base = sa::core::SolverSpec::make("lasso");
  base.lambda = 0.05;
  base.block_size = mu;
  base.accelerated = accelerated;
  base.max_iterations = h;
  base.trace_every = h;
  base.seed = 7;
  if (s > 0) {
    base.algorithm = "sa-lasso";
    base.s = s;
  }
  return sa::core::solve(d, base).trace.final_objective();
}

}  // namespace

int main() {
  sa::bench::print_header(
      "Table III — final relative objective error, SA vs non-SA (s = 1000)",
      "Paper reports every entry at machine precision (eps = 2.2e-16).");

  struct Row {
    const char* method;
    std::size_t mu;
    bool acc;
  };
  const std::vector<Row> rows = {
      {"SA-accCD", 1, true},
      {"SA-CD", 1, false},
      {"SA-accBCD (mu=8)", 8, true},
      {"SA-BCD (mu=8)", 8, false},
  };

  struct Ds {
    sa::data::PaperDataset which;
    double shrink;
    std::size_t h;
  };
  const std::vector<Ds> datasets = {
      {sa::data::PaperDataset::kLeu, 8.0, 500},
      {sa::data::PaperDataset::kCovtype, 1200.0, 400},
      {sa::data::PaperDataset::kNews20, 60.0, 500},
  };

  std::printf("%-20s", "method");
  std::vector<sa::data::Dataset> twins;
  for (const Ds& ds : datasets) {
    twins.push_back(sa::data::make_paper_twin(ds.which, ds.shrink));
    std::printf("  %16s", twins.back().name.c_str());
  }
  std::printf("\n");

  double worst = 0.0;
  for (const Row& row : rows) {
    std::printf("%-20s", row.method);
    for (std::size_t k = 0; k < datasets.size(); ++k) {
      const double f_ref =
          final_objective(twins[k], row.mu, row.acc, 0, datasets[k].h);
      const double f_sa =
          final_objective(twins[k], row.mu, row.acc, 1000, datasets[k].h);
      const double err = sa::core::relative_objective_error(f_ref, f_sa);
      worst = std::max(worst, err);
      std::printf("  %16.4e", err);
    }
    std::printf("\n");
  }
  std::printf("\nmachine epsilon = 2.2e-16;  worst entry = %.4e  (%s)\n",
              worst,
              worst < 1e-12 ? "PASS: numerically stable"
                            : "WARN: above expected precision band");
  return 0;
}
