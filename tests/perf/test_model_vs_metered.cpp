// Model-vs-metered consistency: the Table I formulas (perf/costs.hpp) must
// agree with the counters a real solver execution records through the
// communicator — the two views of cost the repo uses must not drift apart.
#include <mutex>

#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "core/svm.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"
#include "perf/costs.hpp"

namespace sa::perf {
namespace {

/// Runs accBCD (or its SA variant) on `ranks` thread ranks and returns
/// rank 0's counters.
dist::CommStats metered_lasso(const data::Dataset& d, std::size_t mu,
                              std::size_t s, std::size_t h, int ranks) {
  core::SolverSpec base = core::SolverSpec::make("lasso");
  base.lambda = 0.05;
  base.block_size = mu;
  base.accelerated = true;
  base.max_iterations = h;
  const data::Partition rows = data::Partition::block(d.num_points(), ranks);
  dist::CommStats out;
  std::mutex lock;
  dist::run_distributed(ranks, [&](dist::Communicator& comm) {
    if (s == 0) {
      core::make_solver(comm, d, rows, base)->run();
    } else {
      core::SolverSpec sa = base;
      sa.algorithm = "sa-lasso";
      sa.s = s;
      core::make_solver(comm, d, rows, sa)->run();
    }
    if (comm.rank() == 0) {
      std::scoped_lock guard(lock);
      out = comm.stats();
    }
  });
  return out;
}

data::Dataset dense_problem() {
  data::RegressionConfig cfg;
  cfg.num_points = 128;
  cfg.num_features = 64;
  cfg.density = 1.0;  // dense: nnz counts are exact, f = 1
  cfg.support_size = 8;
  cfg.seed = 31;
  return data::make_regression(cfg).dataset;
}

BcdParams params_for(const data::Dataset& d, std::size_t mu, std::size_t s,
                     std::size_t h, int ranks) {
  BcdParams p;
  p.iterations = h;
  p.block_size = mu;
  p.s = std::max<std::size_t>(1, s);
  p.density = d.density();
  p.rows = d.num_points();
  p.cols = d.num_features();
  p.processors = ranks;
  return p;
}

TEST(ModelVsMetered, LatencyCountsMatchExactly) {
  // L = H·log2(P) for accBCD and (H/s)·log2(P) for SA-accBCD — the model
  // and the metered messages must agree exactly (these are counts, not
  // asymptotics).
  const data::Dataset d = dense_problem();
  const std::size_t h = 64;
  const int ranks = 4;
  for (std::size_t s : {std::size_t{0}, std::size_t{8}}) {
    const dist::CommStats metered = metered_lasso(d, 2, s, h, ranks);
    const BcdParams p = params_for(d, 2, s, h, ranks);
    const Costs model = s == 0 ? accbcd_costs(p) : sa_accbcd_costs(p);
    EXPECT_DOUBLE_EQ(model.latency,
                     static_cast<double>(metered.messages))
        << "s=" << s;
  }
}

TEST(ModelVsMetered, BandwidthWithinSmallConstantFactor) {
  // W model: H·µ²·log P (non-SA) / H·s·µ²·log P (SA).  The implementation
  // sends upper(G) plus two dot sections, so the metered words sit within
  // a small constant of the model (between 0.5× and 4×).
  const data::Dataset d = dense_problem();
  const std::size_t h = 64;
  const int ranks = 4;
  for (std::size_t s : {std::size_t{0}, std::size_t{8}}) {
    for (std::size_t mu : {std::size_t{2}, std::size_t{8}}) {
      const dist::CommStats metered = metered_lasso(d, mu, s, h, ranks);
      const BcdParams p = params_for(d, mu, s, h, ranks);
      const Costs model = s == 0 ? accbcd_costs(p) : sa_accbcd_costs(p);
      const double ratio =
          static_cast<double>(metered.words) / model.bandwidth;
      EXPECT_GT(ratio, 0.4) << "mu=" << mu << " s=" << s;
      EXPECT_LT(ratio, 4.0) << "mu=" << mu << " s=" << s;
    }
  }
}

TEST(ModelVsMetered, PayloadWireWordsAreExact) {
  // On the partition solve_on_ranks builds at P = 2, 4, 8 (the reduction
  // grouping's tree nodes) every round puts ONE payload plus the trailer
  // on the wire: metered words = rounds × (payload + trailer) × ⌈log₂P⌉,
  // with no per-chunk factor.
  const data::Dataset d = dense_problem();
  const std::size_t h = 64, mu = 2, s = 8;
  core::SolverSpec spec = core::SolverSpec::make("sa-lasso");
  spec.lambda = 0.05;
  spec.block_size = mu;
  spec.accelerated = true;
  spec.max_iterations = h;
  spec.s = s;
  spec.objective_tolerance = 1e-300;  // kObjective: 1 payload word
  spec.wall_clock_budget = 1e9;       // kStopFlags: 1 trailer word
  const std::size_t k = mu * s;
  const std::size_t payload = k * (k + 1) / 2 + 2 * k + 1;
  const std::size_t trailer = 1;
  const std::size_t rounds = h / s;
  for (const int ranks : {2, 4, 8}) {
    const data::Partition part = core::partition_for_ranks(d, spec, ranks);
    dist::CommStats metered;
    std::size_t iterations = 0;
    std::mutex lock;
    dist::run_distributed(ranks, [&](dist::Communicator& comm) {
      auto solver = core::make_solver(comm, d, part, spec);
      solver->run();
      if (comm.rank() == 0) {
        std::scoped_lock guard(lock);
        metered = comm.stats();
        iterations = solver->iterations_run();
      }
    });
    ASSERT_EQ(iterations, h) << "ranks=" << ranks;
    EXPECT_EQ(metered.words,
              rounds * (payload + trailer) * dist::collective_rounds(ranks))
        << "ranks=" << ranks;
  }
}

TEST(ModelVsMetered, GramFlopsWithinSmallConstantFactor) {
  // F model leading term: H·µ²·f·m/P (dense: f = 1).  Metered
  // data-parallel flops include the dots and updates, so expect agreement
  // within a small factor.
  const data::Dataset d = dense_problem();
  const std::size_t h = 64;
  const int ranks = 4;
  const std::size_t mu = 8;
  const dist::CommStats metered = metered_lasso(d, mu, 0, h, ranks);
  const BcdParams p = params_for(d, mu, 0, h, ranks);
  const Costs model = accbcd_costs(p);
  const double ratio = static_cast<double>(metered.flops) / model.flops;
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 8.0);
}

TEST(ModelVsMetered, SvmLatencyCountsMatchExactly) {
  data::ClassificationConfig cfg;
  cfg.num_points = 64;
  cfg.num_features = 48;
  cfg.density = 1.0;
  cfg.seed = 17;
  const data::Dataset d = data::make_classification(cfg);
  const std::size_t h = 64;
  const int ranks = 4;
  const data::Partition cols = data::Partition::block(d.num_features(), ranks);

  for (std::size_t s : {std::size_t{0}, std::size_t{8}}) {
    dist::CommStats metered;
    std::mutex lock;
    dist::run_distributed(ranks, [&](dist::Communicator& comm) {
      core::SolverSpec base = core::SolverSpec::make("svm");
      base.lambda = 1.0;
      base.max_iterations = h;
      if (s == 0) {
        core::make_solver(comm, d, cols, base)->run();
      } else {
        core::SolverSpec sa = base;
        sa.algorithm = "sa-svm";
        sa.s = s;
        core::make_solver(comm, d, cols, sa)->run();
      }
      if (comm.rank() == 0) {
        std::scoped_lock guard(lock);
        metered = comm.stats();
      }
    });
    SvmParams p;
    p.iterations = h;
    p.s = std::max<std::size_t>(1, s);
    p.density = d.density();
    p.rows = d.num_points();
    p.cols = d.num_features();
    p.processors = ranks;
    const Costs model = s == 0 ? svm_costs(p) : sa_svm_costs(p);
    // +1 collective: the final primal-vector assembly (log2(4) = 2 rounds).
    EXPECT_DOUBLE_EQ(model.latency + 2.0,
                     static_cast<double>(metered.messages))
        << "s=" << s;
  }
}

}  // namespace
}  // namespace sa::perf
