// Optimality-certificate tests: long solver runs must satisfy the KKT /
// subgradient conditions of their convex problems.  These validate the
// mathematics end to end — step sizes, gradients, prox operators, duality
// constants — independently of any reference implementation.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/objective.hpp"
#include "core/prox.hpp"
#include "core/registry.hpp"
#include "core/svm.hpp"
#include "data/synthetic.hpp"
#include "la/vector_ops.hpp"

namespace sa::core {
namespace {

/// Returns the gradient A'(Ax − b) of the least-squares term.
std::vector<double> ls_gradient(const data::Dataset& d,
                                std::span<const double> x) {
  std::vector<double> r(d.num_points());
  d.a.spmv(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] -= d.b[i];
  std::vector<double> g(d.num_features());
  d.a.spmv_transpose(r, g);
  return g;
}

data::Dataset regression_problem(std::uint64_t seed) {
  data::RegressionConfig cfg;
  cfg.num_points = 80;
  cfg.num_features = 30;
  cfg.density = 0.5;
  cfg.support_size = 5;
  cfg.noise_sigma = 0.05;
  cfg.seed = seed;
  return data::make_regression(cfg).dataset;
}

/// Lasso subgradient optimality:
///   |x_j| > activity_tol  ⇒  ∇_j f + λ·sign(x_j) = 0   (within tol)
///   |x_j| ≤ activity_tol  ⇒  |∇_j f| ≤ λ + tol
/// The activity threshold matters for the accelerated solvers: their
/// iterate x = θ²·y + z carries O(θ²) dust on every coordinate, which is
/// "nonzero" without being active.
void check_lasso_kkt(const data::Dataset& d, const std::vector<double>& x,
                     double lambda, double tol,
                     double activity_tol = 1e-6) {
  const std::vector<double> g = ls_gradient(d, x);
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (std::abs(x[j]) > activity_tol) {
      EXPECT_NEAR(g[j] + lambda * (x[j] > 0.0 ? 1.0 : -1.0), 0.0, tol)
          << "active coordinate " << j;
    } else {
      EXPECT_LE(std::abs(g[j]), lambda + tol) << "inactive coordinate " << j;
    }
  }
}

/// Scale-robust optimality certificate: the proximal-gradient residual
///   r_j = x_j − S_{λ/L_j}(x_j − ∇_j f / L_j),  L_j = ||a_j||²,
/// which is 0 exactly at the optimum and maps near-zero "dust"
/// coordinates (the θ²·y term of accelerated iterates) to ~their own
/// magnitude instead of triggering a spurious active-coordinate check.
double prox_gradient_residual(const data::Dataset& d,
                              const std::vector<double>& x, double lambda) {
  const std::vector<double> g = ls_gradient(d, x);
  const std::vector<double> col_norms = d.a.transposed().row_norms_squared();
  double worst = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    const double lj = col_norms[j] > 0.0 ? col_norms[j] : 1.0;
    const double target =
        soft_threshold(x[j] - g[j] / lj, lambda / lj);
    worst = std::max(worst, std::abs(x[j] - target));
  }
  return worst;
}

TEST(Optimality, LassoCdSatisfiesKkt) {
  const data::Dataset d = regression_problem(1);
  SolverSpec opt = SolverSpec::make("lasso");
  opt.lambda = 0.5;
  opt.max_iterations = 30000;
  const SolveResult r = solve(d, opt);
  check_lasso_kkt(d, r.x, opt.lambda, 1e-6);
}

TEST(Optimality, LassoAccBcdSatisfiesKkt) {
  const data::Dataset d = regression_problem(2);
  SolverSpec opt = SolverSpec::make("lasso");
  opt.lambda = 0.5;
  opt.block_size = 4;
  opt.accelerated = true;
  opt.max_iterations = 30000;
  const SolveResult r = solve(d, opt);
  // Accelerated methods reach the optimum at the O(1/H²) objective rate
  // (sublinear tail), so the certificate tolerance is looser than plain
  // CD's linear-rate 1e-6.
  EXPECT_LT(prox_gradient_residual(d, r.x, opt.lambda), 2e-3);
}

TEST(Optimality, SaLassoSatisfiesKkt) {
  const data::Dataset d = regression_problem(3);
  SolverSpec sa = SolverSpec::make("sa-lasso");
  sa.lambda = 0.5;
  sa.block_size = 2;
  sa.accelerated = true;
  sa.max_iterations = 30000;
  sa.s = 32;
  const SolveResult r = solve(d, sa);
  EXPECT_LT(prox_gradient_residual(d, r.x, sa.lambda), 2e-3);
}

TEST(Optimality, ElasticNetStationarity) {
  // EN optimality: x_j ≠ 0 ⇒ ∇_j f + 2λ·w2·x_j + λ·w1·sign(x_j) = 0.
  const data::Dataset d = regression_problem(4);
  SolverSpec opt = SolverSpec::make("lasso");
  opt.penalty = Penalty::kElasticNet;
  opt.lambda = 0.4;
  opt.elastic_net_l1 = 0.6;
  opt.elastic_net_l2 = 0.4;
  opt.max_iterations = 30000;
  const SolveResult r = solve(d, opt);
  const std::vector<double> g = ls_gradient(d, r.x);
  const double l1 = opt.lambda * opt.elastic_net_l1;
  const double l2 = opt.lambda * opt.elastic_net_l2;
  for (std::size_t j = 0; j < r.x.size(); ++j) {
    if (r.x[j] != 0.0) {
      EXPECT_NEAR(g[j] + 2.0 * l2 * r.x[j] +
                      l1 * (r.x[j] > 0.0 ? 1.0 : -1.0),
                  0.0, 1e-6);
    } else {
      EXPECT_LE(std::abs(g[j]), l1 + 1e-6);
    }
  }
}

TEST(Optimality, GroupLassoBlockStationarity) {
  // Active group: A_g'r + λ·x_g/||x_g|| = 0;  inactive: ||A_g'r|| ≤ λ.
  const data::Dataset d = regression_problem(5);
  SolverSpec opt = SolverSpec::make("group-lasso");
  opt.lambda = 1.0;
  opt.groups = GroupStructure::uniform(d.num_features(), 5);
  opt.max_iterations = 30000;
  const SolveResult r = solve(d, opt);
  const std::vector<double> g = ls_gradient(d, r.x);
  for (std::size_t gi = 0; gi < opt.groups.num_groups(); ++gi) {
    const std::size_t begin = opt.groups.offsets[gi];
    const std::size_t size = opt.groups.offsets[gi + 1] - begin;
    const std::span<const double> xg(r.x.data() + begin, size);
    const std::span<const double> gg(g.data() + begin, size);
    const double norm_x = la::nrm2(xg);
    if (norm_x > 0.0) {
      for (std::size_t a = 0; a < size; ++a)
        EXPECT_NEAR(gg[a] + opt.lambda * xg[a] / norm_x, 0.0, 1e-5)
            << "group " << gi;
    } else {
      EXPECT_LE(la::nrm2(gg), opt.lambda + 1e-6) << "group " << gi;
    }
  }
}

// ------------------------------------------------------------------ SVM

data::Dataset classification_problem(std::uint64_t seed) {
  data::ClassificationConfig cfg;
  cfg.num_points = 70;
  cfg.num_features = 30;
  cfg.density = 0.5;
  cfg.margin = 0.4;
  cfg.seed = seed;
  return data::make_classification(cfg);
}

/// Dual-SVM box KKT:  α_i = 0 ⇒ g_i ≥ 0;  α_i = ν ⇒ g_i ≤ 0;
/// interior ⇒ g_i = 0, where g_i = b_i·A_i·x − 1 + γ·α_i.
void check_svm_kkt(const data::Dataset& d, const SolveResult& r, double lambda,
                   SvmLoss loss, double tol) {
  const SvmConstants c = SvmConstants::make(loss, lambda);
  std::vector<double> margins(d.num_points());
  d.a.spmv(r.x, margins);
  for (std::size_t i = 0; i < d.num_points(); ++i) {
    const double g = d.b[i] * margins[i] - 1.0 + c.gamma * r.alpha[i];
    if (r.alpha[i] <= tol) {
      EXPECT_GE(g, -tol) << "lower-bound point " << i;
    } else if (std::isfinite(c.nu) && r.alpha[i] >= c.nu - tol) {
      EXPECT_LE(g, tol) << "upper-bound point " << i;
    } else {
      EXPECT_NEAR(g, 0.0, tol) << "interior point " << i;
    }
  }
}

TEST(Optimality, SvmL1SatisfiesDualKkt) {
  const data::Dataset d = classification_problem(11);
  SolverSpec opt = SolverSpec::make("svm");
  opt.lambda = 1.0;
  opt.loss = SvmLoss::kL1;
  opt.max_iterations = 60000;
  const SolveResult r = solve(d, opt);
  check_svm_kkt(d, r, opt.lambda, opt.loss, 1e-6);
}

TEST(Optimality, SvmL2SatisfiesDualKkt) {
  const data::Dataset d = classification_problem(12);
  SolverSpec opt = SolverSpec::make("svm");
  opt.lambda = 1.0;
  opt.loss = SvmLoss::kL2;
  opt.max_iterations = 60000;
  const SolveResult r = solve(d, opt);
  check_svm_kkt(d, r, opt.lambda, opt.loss, 1e-6);
}

TEST(Optimality, SaSvmSatisfiesDualKkt) {
  const data::Dataset d = classification_problem(13);
  SolverSpec sa = SolverSpec::make("sa-svm");
  sa.lambda = 1.0;
  sa.loss = SvmLoss::kL2;
  sa.max_iterations = 60000;
  sa.s = 50;
  const SolveResult r = solve(d, sa);
  check_svm_kkt(d, r, sa.lambda, sa.loss, 1e-6);
}

TEST(Optimality, SvmDualityGapVanishesAtOptimum) {
  // Strong duality: at the dual optimum the primal-dual gap is ~0
  // (the property behind the paper's Figure 5 convergence criterion).
  const data::Dataset d = classification_problem(14);
  SolverSpec opt = SolverSpec::make("svm");
  opt.lambda = 1.0;
  opt.loss = SvmLoss::kL2;
  opt.max_iterations = 60000;
  const SolveResult r = solve(d, opt);
  const double gap =
      svm_duality_gap(d.a, d.b, r.alpha, r.x, opt.lambda, opt.loss);
  EXPECT_GE(gap, -1e-9);
  EXPECT_LE(gap, 1e-8);
}

}  // namespace
}  // namespace sa::core
