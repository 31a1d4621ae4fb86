// Steady-state allocation tests: the s-step solvers size their arena in
// the first (largest) outer iteration and must not touch the heap again —
// the zero-copy pipeline's whole point is that the inner loop is pure
// compute.  The global operator new is replaced with a counting shim, and
// a long solve must allocate exactly as much as a one-outer-iteration
// solve (identical setup, 20+ extra steady-state iterations, zero extra
// allocations).
#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/annotate.hpp"
#include "core/registry.hpp"
#include "core/svm.hpp"
#include "data/synthetic.hpp"

namespace {

std::atomic<std::size_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // Feed the SA_STEADY_STATE debug guard too: the same shim backs both
  // the whole-solve delta counting here and the in-scope violation
  // accounting in common/annotate.hpp (live in builds without NDEBUG).
  sa::common::notify_allocation();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sa::core {
namespace {

template <typename F>
std::size_t allocations_during(F&& f) {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  f();
  g_counting.store(false, std::memory_order_relaxed);
  return g_alloc_count.load(std::memory_order_relaxed);
}

data::Dataset regression_problem() {
  data::RegressionConfig cfg;
  cfg.num_points = 80;
  cfg.num_features = 32;
  cfg.density = 0.3;
  cfg.support_size = 6;
  cfg.seed = 17;
  return data::make_regression(cfg).dataset;
}

TEST(SteadyState, SaLassoAllocatesOnlyInTheFirstOuterIteration) {
  const data::Dataset d = regression_problem();
  const auto run = [&](std::size_t iterations, bool accelerated) {
    SolverSpec sa = SolverSpec::make("sa-lasso");
    sa.lambda = 0.05;
    sa.block_size = 2;
    sa.accelerated = accelerated;
    sa.max_iterations = iterations;
    sa.trace_every = 0;  // tracing is instrumentation, not hot path
    sa.s = 4;
    return allocations_during([&] { solve(d, sa); });
  };
  for (const bool accelerated : {false, true}) {
    run(4, accelerated);  // warm thread-local kernel scratch
    const std::size_t one_iteration = run(4, accelerated);
    const std::size_t many_iterations = run(84, accelerated);
    EXPECT_EQ(many_iterations, one_iteration)
        << (accelerated ? "accelerated" : "plain")
        << ": 20 extra outer iterations must not allocate";
  }
}

// A narrow dense block (12 columns, k_max = 8) runs on the Gram cache: its
// table is sized at construction and built in the first round, so later
// rounds, which only gather from it, allocate nothing.
TEST(SteadyState, CachedDenseSaLassoAllocatesOnlyInTheFirstOuterIteration) {
  data::RegressionConfig cfg;
  cfg.num_points = 80;
  cfg.num_features = 12;
  cfg.density = 1.0;
  cfg.support_size = 4;
  cfg.seed = 19;
  const data::Dataset d = data::make_regression(cfg).dataset;
  const auto run = [&](std::size_t iterations) {
    SolverSpec sa = SolverSpec::make("sa-lasso");
    sa.lambda = 0.05;
    sa.block_size = 2;
    sa.accelerated = true;
    sa.max_iterations = iterations;
    sa.trace_every = 0;
    sa.s = 4;
    return allocations_during([&] { solve(d, sa); });
  };
  run(4);  // warm thread-local kernel scratch
  const std::size_t one_iteration = run(4);
  const std::size_t many_iterations = run(84);
  EXPECT_EQ(many_iterations, one_iteration);
}

TEST(SteadyState, SaSvmAllocatesOnlyInTheFirstOuterIteration) {
  data::ClassificationConfig cfg;
  cfg.num_points = 60;
  cfg.num_features = 48;
  cfg.density = 0.3;
  cfg.seed = 23;
  const data::Dataset d = data::make_classification(cfg);
  const auto run = [&](std::size_t iterations) {
    SolverSpec sa = SolverSpec::make("sa-svm");
    sa.lambda = 1.0;
    sa.loss = SvmLoss::kL2;
    sa.max_iterations = iterations;
    sa.trace_every = 0;
    sa.s = 6;
    return allocations_during([&] { solve(d, sa); });
  };
  run(6);
  const std::size_t one_iteration = run(6);
  const std::size_t many_iterations = run(126);
  EXPECT_EQ(many_iterations, one_iteration);
}

TEST(SteadyState, SaGroupLassoAllocatesOnlyInTheFirstOuterIteration) {
  const data::Dataset d = regression_problem();
  const auto run = [&](std::size_t iterations) {
    SolverSpec sa = SolverSpec::make("sa-group-lasso");
    sa.lambda = 0.1;
    sa.groups = GroupStructure::uniform(d.num_features(), 4);
    sa.max_iterations = iterations;
    sa.trace_every = 0;
    sa.s = 4;
    return allocations_during([&] { solve(d, sa); });
  };
  run(4);
  const std::size_t one_iteration = run(4);
  const std::size_t many_iterations = run(84);
  EXPECT_EQ(many_iterations, one_iteration);
}

// The classical solvers are the same engines at unrolling depth 1 since
// the view-pipeline port, so they inherit the zero-steady-state-allocation
// property: extra iterations past the first must not touch the heap.

TEST(SteadyState, ClassicalLassoAllocatesOnlyInTheFirstIteration) {
  const data::Dataset d = regression_problem();
  const auto run = [&](std::size_t iterations, bool accelerated) {
    SolverSpec opt = SolverSpec::make("lasso");
    opt.lambda = 0.05;
    opt.block_size = 2;
    opt.accelerated = accelerated;
    opt.max_iterations = iterations;
    opt.trace_every = 0;
    return allocations_during([&] { solve(d, opt); });
  };
  for (const bool accelerated : {false, true}) {
    run(1, accelerated);  // warm thread-local kernel scratch
    const std::size_t one_iteration = run(1, accelerated);
    const std::size_t many_iterations = run(41, accelerated);
    EXPECT_EQ(many_iterations, one_iteration)
        << (accelerated ? "accelerated" : "plain")
        << ": 40 extra iterations must not allocate";
  }
}

TEST(SteadyState, ClassicalGroupLassoAllocatesOnlyInTheFirstIteration) {
  const data::Dataset d = regression_problem();
  const auto run = [&](std::size_t iterations) {
    SolverSpec opt = SolverSpec::make("group-lasso");
    opt.lambda = 0.1;
    opt.groups = GroupStructure::uniform(d.num_features(), 4);
    opt.max_iterations = iterations;
    opt.trace_every = 0;
    return allocations_during([&] { solve(d, opt); });
  };
  run(1);
  const std::size_t one_iteration = run(1);
  const std::size_t many_iterations = run(41);
  EXPECT_EQ(many_iterations, one_iteration);
}

// The checkpoint-every path must also be allocation-free in steady state:
// the snapshot image is built in the engine's reused SnapshotWriter, the
// partitioned-state gathers ride a la::Workspace arena slot, and the tmp
// path string is built once — so a run that writes eleven checkpoints
// allocates exactly as much as a run that writes one.  (File I/O goes
// through C stdio, which the operator-new shim deliberately ignores: the
// assertion is about the solver's heap, not libc's.)
TEST(SteadyState, CheckpointEveryAllocatesOnlyForTheFirstSnapshot) {
  const data::Dataset d = regression_problem();
  const std::string path =
      ::testing::TempDir() + "sa_steady_checkpoint.snap";
  const auto run = [&](std::size_t iterations) {
    SolverSpec spec = SolverSpec::make("sa-lasso");
    spec.lambda = 0.05;
    spec.block_size = 2;
    spec.s = 4;
    spec.max_iterations = iterations;
    spec.trace_every = 0;
    spec.checkpoint_path = path;
    spec.checkpoint_every = 8;
    return allocations_during([&] { solve(d, spec); });
  };
  run(8);  // warm thread-local kernel scratch
  const std::size_t one_checkpoint = run(8);
  const std::size_t many_checkpoints = run(88);
  EXPECT_EQ(many_checkpoints, one_checkpoint)
      << "ten extra checkpoints must not allocate";
}

TEST(SteadyState, ClassicalSvmAllocatesOnlyInTheFirstIteration) {
  data::ClassificationConfig cfg;
  cfg.num_points = 60;
  cfg.num_features = 48;
  cfg.density = 0.3;
  cfg.seed = 23;
  const data::Dataset d = data::make_classification(cfg);
  const auto run = [&](std::size_t iterations) {
    SolverSpec opt = SolverSpec::make("svm");
    opt.lambda = 1.0;
    opt.loss = SvmLoss::kL2;
    opt.max_iterations = iterations;
    opt.trace_every = 0;
    return allocations_during([&] { solve(d, opt); });
  };
  run(1);
  const std::size_t one_iteration = run(1);
  const std::size_t many_iterations = run(41);
  EXPECT_EQ(many_iterations, one_iteration);
}

}  // namespace
}  // namespace sa::core
