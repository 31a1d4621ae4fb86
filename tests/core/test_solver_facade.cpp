// The unified Solver facade: registry coverage, the SolverSpec defaults
// pin, path/cross-validation against explicit warm-started loops,
// re-entrant step()/run() semantics, observers, and stopping criteria.
#include "core/registry.hpp"

#include <cmath>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "core/cross_validation.hpp"
#include "core/objective.hpp"
#include "core/path.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"
#include "la/vector_ops.hpp"

namespace sa::core {
namespace {

data::Dataset regression_problem(std::uint64_t seed = 42) {
  data::RegressionConfig cfg;
  cfg.num_points = 70;
  cfg.num_features = 30;
  cfg.density = 0.4;
  cfg.support_size = 5;
  cfg.noise_sigma = 0.02;
  cfg.seed = seed;
  return data::make_regression(cfg).dataset;
}

data::Dataset classification_problem(std::uint64_t seed = 42) {
  data::ClassificationConfig cfg;
  cfg.num_points = 60;
  cfg.num_features = 40;
  cfg.density = 0.4;
  cfg.seed = seed;
  return data::make_classification(cfg);
}

/// Bitwise trace equality: same iteration numbers, same objective bits.
void expect_traces_identical(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].iteration, b.points[i].iteration) << "point " << i;
    EXPECT_EQ(a.points[i].objective, b.points[i].objective) << "point " << i;
  }
  EXPECT_EQ(a.iterations_run, b.iterations_run);
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

TEST(SolverRegistry, ListsAllSixAlgorithms) {
  const std::vector<std::string> ids = registered_algorithms();
  for (const char* id : {"lasso", "sa-lasso", "group-lasso",
                         "sa-group-lasso", "svm", "sa-svm"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end())
        << "missing " << id;
  }
}

TEST(SolverRegistry, UnknownIdErrorNamesTheAvailableSet) {
  const data::Dataset d = regression_problem();
  dist::SerialComm comm;
  try {
    make_solver(comm, d, data::Partition::block(d.num_points(), 1),
                SolverSpec::make("no-such-solver"));
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-solver"), std::string::npos);
    EXPECT_NE(what.find("sa-group-lasso"), std::string::npos);
    EXPECT_NE(what.find("sa-svm"), std::string::npos);
  }
}

TEST(SolverRegistry, SpecValidationRejectsContradictions) {
  const data::Dataset d = regression_problem();
  dist::SerialComm comm;
  const data::Partition rows = data::Partition::block(d.num_points(), 1);
  SolverSpec bad = SolverSpec::make("lasso").with_block_size(0);
  EXPECT_THROW(make_solver(comm, d, rows, bad), PreconditionError);
  bad = SolverSpec::make("sa-lasso").with_s(0);
  EXPECT_THROW(make_solver(comm, d, rows, bad), PreconditionError);
  bad = SolverSpec::make("group-lasso");  // no groups
  EXPECT_THROW(make_solver(comm, d, rows, bad), PreconditionError);
  bad = SolverSpec::make("lasso").with_gap_tolerance(1e-3);  // SVM-only
  EXPECT_THROW(make_solver(comm, d, rows, bad), PreconditionError);
  bad = SolverSpec::make("svm");  // non-binary labels
  EXPECT_THROW(make_solver(comm, d, rows, bad), PreconditionError);

  // The SVM tolerances are checked at trace points only, so with tracing
  // off they could never fire: rejected with the reason, not ignored.
  const data::Dataset labelled = classification_problem();
  const data::Partition cols =
      data::Partition::block(labelled.num_features(), 1);
  for (const char* id : {"svm", "sa-svm"}) {
    for (const bool gap : {true, false}) {
      SolverSpec spec = SolverSpec::make(id).with_lambda(1.0);
      if (gap)
        spec.with_gap_tolerance(1e-4);
      else
        spec.with_objective_tolerance(1e-4);
      try {
        make_solver(comm, labelled, cols, spec);
        ADD_FAILURE() << id << ": expected PreconditionError";
      } catch (const PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find("trace_every > 0"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_NO_THROW(
          make_solver(comm, labelled, cols, spec.with_trace_every(10)));
    }
  }
}

// ---------------------------------------------------------------------
// Single source of defaults
// ---------------------------------------------------------------------

TEST(SolverSpecDefaults, PinTheSharedDefaults) {
  // SolverSpec is THE source of defaults for every family and for the
  // CLI.  The SVM family shares λ = 0.1 and H = 1000; the paper's
  // Algorithm 3 settings (λ = 1, H = 10000) are always spelled out.
  const SolverSpec spec;
  EXPECT_EQ(spec.algorithm, "lasso");
  EXPECT_EQ(spec.lambda, 0.1);
  EXPECT_EQ(spec.max_iterations, 1000u);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.trace_every, 0u);
  EXPECT_EQ(spec.s, 8u);
  EXPECT_EQ(spec.penalty, Penalty::kLasso);
  EXPECT_EQ(spec.block_size, 1u);
  EXPECT_FALSE(spec.accelerated);
  EXPECT_EQ(spec.loss, SvmLoss::kL1);
  EXPECT_EQ(spec.gap_tolerance, 0.0);
}

// ---------------------------------------------------------------------
// Warm-started path / cross-validation against explicit loops
// ---------------------------------------------------------------------

TEST(FacadePath, WarmStartedPathMatchesExplicitLoopBitwise) {
  const data::Dataset d = regression_problem(11);
  PathOptions opt;
  opt.solver.block_size = 2;
  opt.solver.accelerated = true;
  opt.solver.max_iterations = 120;
  opt.num_lambdas = 6;
  opt.lambda_min_ratio = 1e-2;
  opt.s = 4;  // SA solver along the path

  const auto path = lasso_path(d, opt);
  ASSERT_EQ(path.size(), 6u);

  // The explicit warm-started loop over the same grid.
  const auto grid = default_lambda_grid(d, 6, 1e-2);
  std::vector<double> warm;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const SolveResult r = solve(d, SolverSpec::make("sa-lasso")
                                       .with_lambda(grid[i])
                                       .with_block_size(2)
                                       .with_acceleration(true)
                                       .with_max_iterations(120)
                                       .with_warm_start(warm)
                                       .with_s(4));
    EXPECT_EQ(path[i].x, r.x) << "lambda index " << i;  // bitwise
    warm = r.x;
  }
}

TEST(FacadeCv, CrossValidationMatchesExplicitComputation) {
  const data::Dataset d = regression_problem(13);
  CvOptions cv;
  cv.path.solver.block_size = 2;
  cv.path.solver.max_iterations = 80;
  cv.path.num_lambdas = 4;
  cv.path.lambda_min_ratio = 1e-2;
  cv.num_folds = 3;
  const CvResult facade = cross_validate_lasso(d, cv);
  ASSERT_EQ(facade.points.size(), 4u);

  // Recompute fold MSEs with an explicit warm-started loop (same solves,
  // same averaging arithmetic — bitwise agreement).
  const auto grid = default_lambda_grid(d, 4, 1e-2);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::vector<double> fold_mse(cv.num_folds, 0.0);
    for (std::size_t fold = 0; fold < cv.num_folds; ++fold) {
      const auto [train, test] =
          split_fold(d, fold, cv.num_folds, cv.shuffle_seed);
      std::vector<double> warm;
      for (std::size_t k = 0; k <= i; ++k) {
        warm = solve(train, SolverSpec::make("lasso")
                                .with_lambda(grid[k])
                                .with_block_size(2)
                                .with_max_iterations(80)
                                .with_warm_start(warm))
                   .x;
      }
      fold_mse[fold] = mean_squared_error(test, warm);
    }
    EXPECT_EQ(facade.points[i].mean_mse,
              la::sum(fold_mse) / static_cast<double>(cv.num_folds))
        << "lambda index " << i;
  }
}

// ---------------------------------------------------------------------
// Re-entrant step()/run() and observers
// ---------------------------------------------------------------------

TEST(SolverStepping, ChunkedSteppingIsBitwiseIdenticalToRun) {
  const data::Dataset d = regression_problem();
  const SolverSpec spec = SolverSpec::make("sa-lasso")
                              .with_lambda(0.05)
                              .with_block_size(2)
                              .with_acceleration(true)
                              .with_max_iterations(48)
                              .with_trace_every(8)
                              .with_s(6);
  dist::SerialComm c1, c2, c3;
  const data::Partition rows = data::Partition::block(d.num_points(), 1);

  const SolveResult ran = make_solver(c1, d, rows, spec)->run();

  // step(1) at a time: each call still advances a whole s-step round.
  auto stepped = make_solver(c2, d, rows, spec);
  std::size_t total = 0;
  while (!stepped->finished()) total += stepped->step(1);
  EXPECT_EQ(total, 48u);
  const SolveResult fine = stepped->finish();

  // Uneven chunks.
  auto chunked = make_solver(c3, d, rows, spec);
  chunked->step(13);
  chunked->step(1);
  while (!chunked->finished()) chunked->step(20);
  const SolveResult coarse = chunked->finish();

  EXPECT_EQ(ran.x, fine.x);
  EXPECT_EQ(ran.x, coarse.x);
  expect_traces_identical(ran.trace, fine.trace);
  expect_traces_identical(ran.trace, coarse.trace);
}

TEST(SolverStepping, ObserverSeesEveryRound) {
  const data::Dataset d = regression_problem();
  const SolverSpec spec = SolverSpec::make("sa-lasso")
                              .with_lambda(0.05)
                              .with_max_iterations(40)
                              .with_s(8);
  dist::SerialComm comm;
  auto solver = make_solver(
      comm, d, data::Partition::block(d.num_points(), 1), spec);
  std::vector<std::size_t> seen;
  solver->set_observer([&](std::size_t done) { seen.push_back(done); });
  solver->run();
  const std::vector<std::size_t> expected{8, 16, 24, 32, 40};
  EXPECT_EQ(seen, expected);
}

TEST(SolverStepping, FinishWithoutSteppingReturnsTheInitialIterate) {
  const data::Dataset d = regression_problem();
  const SolverSpec spec = SolverSpec::make("lasso")
                              .with_lambda(0.05)
                              .with_max_iterations(0)
                              .with_trace_every(1);
  dist::SerialComm comm;
  const SolveResult r =
      make_solver(comm, d, data::Partition::block(d.num_points(), 1), spec)
          ->run();
  EXPECT_EQ(r.trace.iterations_run, 0u);
  ASSERT_EQ(r.trace.points.size(), 1u);
  for (double v : r.x) EXPECT_EQ(v, 0.0);
}

// ---------------------------------------------------------------------
// Stopping criteria
// ---------------------------------------------------------------------

TEST(StoppingCriteria, GapToleranceReportsItsReason) {
  const data::Dataset d = classification_problem();
  const SolverSpec spec = SolverSpec::make("sa-svm")
                              .with_lambda(1.0)
                              .with_loss(SvmLoss::kL2)
                              .with_max_iterations(100000)
                              .with_trace_every(100)
                              .with_gap_tolerance(1e-3)
                              .with_s(10);
  const SolveResult r = solve(d, spec);
  EXPECT_EQ(r.stop_reason, StopReason::kGapTolerance);
  EXPECT_LT(r.trace.iterations_run, 100000u);
  EXPECT_LE(r.final_objective(), 1e-3);
}

TEST(StoppingCriteria, ObjectiveToleranceStopsAPlateauedSolve) {
  const data::Dataset d = regression_problem();
  const SolverSpec spec = SolverSpec::make("lasso")
                              .with_lambda(0.05)
                              .with_block_size(4)
                              .with_max_iterations(100000)
                              .with_trace_every(50)
                              .with_objective_tolerance(1e-12);
  const SolveResult r = solve(d, spec);
  EXPECT_EQ(r.stop_reason, StopReason::kObjectiveTolerance);
  EXPECT_LT(r.trace.iterations_run, 100000u);
}

TEST(StoppingCriteria, WallClockBudgetStopsEveryRankConsistently) {
  const data::Dataset d = regression_problem();
  SolverSpec spec = SolverSpec::make("sa-lasso")
                        .with_lambda(0.05)
                        .with_max_iterations(100000000)  // effectively ∞
                        .with_s(8)
                        .with_wall_clock_budget(0.05);
  const data::Partition rows = data::Partition::block(d.num_points(), 3);
  std::vector<SolveResult> per_rank(3);
  std::mutex lock;
  dist::run_distributed(3, [&](dist::Communicator& comm) {
    SolveResult r = make_solver(comm, d, rows, spec)->run();
    std::scoped_lock guard(lock);
    per_rank[comm.rank()] = std::move(r);
  });
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(per_rank[r].stop_reason, StopReason::kWallClockBudget);
    // The decision is replicated (rank 0's clock), so every rank stops at
    // the same iteration with the same iterate.
    EXPECT_EQ(per_rank[r].trace.iterations_run,
              per_rank[0].trace.iterations_run);
    EXPECT_EQ(per_rank[r].x, per_rank[0].x);
  }
}

}  // namespace
}  // namespace sa::core
