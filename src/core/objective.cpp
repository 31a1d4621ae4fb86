#include "core/objective.hpp"

#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "la/vector_ops.hpp"

namespace sa::core {

namespace {

std::vector<double> residual(const la::CsrMatrix& a, std::span<const double> b,
                             std::span<const double> x) {
  SA_CHECK(b.size() == a.rows() && x.size() == a.cols(),
           "objective: dimension mismatch");
  std::vector<double> r(a.rows());
  a.spmv(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] -= b[i];
  return r;
}

}  // namespace

double lasso_objective(const la::CsrMatrix& a, std::span<const double> b,
                       std::span<const double> x, double lambda) {
  const std::vector<double> r = residual(a, b, x);
  return 0.5 * la::nrm2_squared(r) + lambda * la::asum(x);
}

double group_lasso_objective(const la::CsrMatrix& a, std::span<const double> b,
                             std::span<const double> x, double lambda,
                             const GroupStructure& groups) {
  SA_CHECK(!groups.offsets.empty() && groups.offsets.back() == x.size(),
           "group_lasso_objective: groups do not cover x");
  const std::vector<double> r = residual(a, b, x);
  double penalty = 0.0;
  for (std::size_t g = 0; g < groups.num_groups(); ++g) {
    const std::size_t begin = groups.offsets[g];
    penalty += la::nrm2(x.subspan(begin, groups.offsets[g + 1] - begin));
  }
  return 0.5 * la::nrm2_squared(r) + lambda * penalty;
}

double relative_objective_error(double reference, double other) {
  if (reference == 0.0) return std::abs(other);
  return std::abs(reference - other) / std::abs(reference);
}

SvmConstants SvmConstants::make(SvmLoss loss, double lambda) {
  SA_CHECK(lambda > 0.0, "SvmConstants: lambda must be positive");
  SvmConstants c;
  if (loss == SvmLoss::kL1) {
    c.gamma = 0.0;
    c.nu = lambda;
  } else {
    c.gamma = 0.5 / lambda;
    c.nu = std::numeric_limits<double>::infinity();
  }
  return c;
}

double svm_primal_objective(const la::CsrMatrix& a, std::span<const double> b,
                            std::span<const double> x, double lambda,
                            SvmLoss loss) {
  SA_CHECK(b.size() == a.rows() && x.size() == a.cols(),
           "svm_primal_objective: dimension mismatch");
  std::vector<double> margins(a.rows());
  a.spmv(x, margins);
  double hinge_sum = 0.0;
  for (std::size_t i = 0; i < margins.size(); ++i) {
    const double slack = std::max(0.0, 1.0 - b[i] * margins[i]);
    hinge_sum += (loss == SvmLoss::kL1) ? slack : slack * slack;
  }
  return 0.5 * la::nrm2_squared(x) + lambda * hinge_sum;
}

double svm_dual_objective(std::span<const double> alpha,
                          std::span<const double> x, double gamma) {
  return la::sum(alpha) - 0.5 * la::nrm2_squared(x) -
         0.5 * gamma * la::nrm2_squared(alpha);
}

double svm_duality_gap(const la::CsrMatrix& a, std::span<const double> b,
                       std::span<const double> alpha,
                       std::span<const double> x, double lambda,
                       SvmLoss loss) {
  const SvmConstants c = SvmConstants::make(loss, lambda);
  return svm_primal_objective(a, b, x, lambda, loss) -
         svm_dual_objective(alpha, x, c.gamma);
}

double lasso_lambda_max(const la::CsrMatrix& a, std::span<const double> b) {
  std::vector<double> atb(a.cols());
  a.spmv_transpose(b, atb);
  return la::inf_norm(atb);
}

}  // namespace sa::core
