// Objective functions, duality gaps, and λ-selection helpers.
//
// These are the quantities the paper plots: the Lasso objective
// f(A,b,x) = ½||Ax − b||² + λ||x||₁ (Figures 2–3, Table III) and the SVM
// duality gap P(x) − D(α) (Figure 5, Table V).
#pragma once

#include <span>
#include <vector>

#include "core/prox.hpp"
#include "data/dataset.hpp"
#include "la/csr.hpp"

namespace sa::core {

/// ½||Ax − b||² + λ||x||₁ computed from scratch (serial; tests/examples).
double lasso_objective(const la::CsrMatrix& a, std::span<const double> b,
                       std::span<const double> x, double lambda);

/// ½||Ax − b||² + λ·Σ_g ||x_g||₂ over the given disjoint groups.
double group_lasso_objective(const la::CsrMatrix& a, std::span<const double> b,
                             std::span<const double> x, double lambda,
                             const GroupStructure& groups);

/// Relative difference |a − b| / |a| used for Table III
/// (paper: |f_non-SA − f_SA| / f_non-SA).
double relative_objective_error(double reference, double other);

/// SVM loss variant (paper §V): L1 hinge  max(1−y·f, 0)  or squared hinge.
enum class SvmLoss { kL1, kL2 };

/// Dual-CD constants from the paper/Hsieh et al.:
/// L1: γ = 0,        ν = λ (box upper bound);
/// L2: γ = 1/(2λ),   ν = +∞.
struct SvmConstants {
  double gamma = 0.0;
  double nu = 0.0;
  static SvmConstants make(SvmLoss loss, double lambda);
};

/// Primal SVM objective  P(x) = ½||x||² + λ·Σᵢ loss(1 − bᵢ·Aᵢx).
double svm_primal_objective(const la::CsrMatrix& a, std::span<const double> b,
                            std::span<const double> x, double lambda,
                            SvmLoss loss);

/// Dual SVM objective  D(α) = eᵀα − ½||Σᵢ bᵢαᵢAᵢᵀ||² − (γ/2)||α||²
/// evaluated from the maintained primal iterate x = Σᵢ bᵢαᵢAᵢᵀ.
double svm_dual_objective(std::span<const double> alpha,
                          std::span<const double> x, double gamma);

/// Duality gap  P(x) − D(α); non-negative for feasible (x, α) pairs and
/// the convergence criterion used in the paper's Figure 5.
double svm_duality_gap(const la::CsrMatrix& a, std::span<const double> b,
                       std::span<const double> alpha,
                       std::span<const double> x, double lambda, SvmLoss loss);

/// λ_max = ||Aᵀb||_∞: smallest λ for which the Lasso solution is exactly 0.
/// Useful for regularization paths (examples/lasso_path).
double lasso_lambda_max(const la::CsrMatrix& a, std::span<const double> b);

}  // namespace sa::core
