// Tests for objective functions, duality gaps, and λ helpers.
#include "core/objective.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "la/vector_ops.hpp"

namespace sa::core {
namespace {

la::CsrMatrix identity2() {
  return la::CsrMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {1, 1, 1.0}});
}

TEST(LassoObjective, ZeroSolutionGivesHalfNormB) {
  const la::CsrMatrix a = identity2();
  const std::vector<double> b{3.0, 4.0};
  const std::vector<double> x{0.0, 0.0};
  EXPECT_DOUBLE_EQ(lasso_objective(a, b, x, 1.0), 12.5);
}

TEST(LassoObjective, ExactSolutionLeavesOnlyPenalty) {
  const la::CsrMatrix a = identity2();
  const std::vector<double> b{1.0, -2.0};
  const std::vector<double> x{1.0, -2.0};
  EXPECT_DOUBLE_EQ(lasso_objective(a, b, x, 0.5), 0.5 * 3.0);
}

TEST(GroupLassoObjective, SumsGroupNorms) {
  const la::CsrMatrix a = identity2();
  const std::vector<double> b{0.0, 0.0};
  const std::vector<double> x{3.0, 4.0};
  const GroupStructure one_group = GroupStructure::uniform(2, 2);
  // ½·25 + 1·5 = 17.5
  EXPECT_DOUBLE_EQ(group_lasso_objective(a, b, x, 1.0, one_group), 17.5);
  const GroupStructure two_groups = GroupStructure::uniform(2, 1);
  // ½·25 + 1·(3+4) = 19.5
  EXPECT_DOUBLE_EQ(group_lasso_objective(a, b, x, 1.0, two_groups), 19.5);
}

TEST(RelativeObjectiveError, MatchesPaperDefinition) {
  EXPECT_DOUBLE_EQ(relative_objective_error(2.0, 2.2),
                   std::abs(2.0 - 2.2) / 2.0);
  EXPECT_DOUBLE_EQ(relative_objective_error(0.0, 0.5), 0.5);
}

TEST(SvmConstants, L1HasZeroGammaAndBoxedDual) {
  const SvmConstants c = SvmConstants::make(SvmLoss::kL1, 2.0);
  EXPECT_DOUBLE_EQ(c.gamma, 0.0);
  EXPECT_DOUBLE_EQ(c.nu, 2.0);
}

TEST(SvmConstants, L2HasDiagonalShiftAndUnboundedDual) {
  const SvmConstants c = SvmConstants::make(SvmLoss::kL2, 2.0);
  EXPECT_DOUBLE_EQ(c.gamma, 0.25);  // 1/(2λ)
  EXPECT_TRUE(std::isinf(c.nu));
}

TEST(SvmConstants, RejectsNonPositiveLambda) {
  EXPECT_THROW(SvmConstants::make(SvmLoss::kL1, 0.0), sa::PreconditionError);
}

TEST(SvmPrimal, SeparatedPointsContributeNoLoss) {
  const la::CsrMatrix a = identity2();
  const std::vector<double> b{1.0, -1.0};
  const std::vector<double> x{2.0, -2.0};  // margins b_i·A_i·x = 2 ≥ 1
  EXPECT_DOUBLE_EQ(svm_primal_objective(a, b, x, 1.0, SvmLoss::kL1), 4.0);
  EXPECT_DOUBLE_EQ(svm_primal_objective(a, b, x, 1.0, SvmLoss::kL2), 4.0);
}

TEST(SvmPrimal, HingeCountsViolations) {
  const la::CsrMatrix a = identity2();
  const std::vector<double> b{1.0, 1.0};
  const std::vector<double> x{0.0, 0.0};  // slack 1 per point
  EXPECT_DOUBLE_EQ(svm_primal_objective(a, b, x, 3.0, SvmLoss::kL1), 6.0);
  EXPECT_DOUBLE_EQ(svm_primal_objective(a, b, x, 3.0, SvmLoss::kL2), 6.0);
}

TEST(SvmPrimal, SquaredHingeGrowsQuadratically) {
  const la::CsrMatrix a = identity2();
  const std::vector<double> b{1.0, 1.0};
  const std::vector<double> x{-1.0, 0.0};  // slacks 2 and 1
  EXPECT_DOUBLE_EQ(svm_primal_objective(a, b, x, 1.0, SvmLoss::kL1),
                   0.5 + 3.0);
  EXPECT_DOUBLE_EQ(svm_primal_objective(a, b, x, 1.0, SvmLoss::kL2),
                   0.5 + 5.0);
}

TEST(SvmDual, ZeroAlphaGivesZero) {
  const std::vector<double> alpha{0.0, 0.0};
  const std::vector<double> x{0.0, 0.0};
  EXPECT_DOUBLE_EQ(svm_dual_objective(alpha, x, 0.0), 0.0);
}

TEST(SvmDual, MatchesManualFormula) {
  const std::vector<double> alpha{0.5, 1.0};
  const std::vector<double> x{1.0, -1.0};
  // Σα − ½||x||² − γ/2·||α||² = 1.5 − 1 − 0.25·1.25
  EXPECT_DOUBLE_EQ(svm_dual_objective(alpha, x, 0.5), 1.5 - 1.0 - 0.3125);
}

TEST(SvmDualityGap, NonNegativeForFeasiblePairs) {
  // Feasible dual point α with matching x = Σ b_i α_i A_iᵀ.
  const la::CsrMatrix a = identity2();
  const std::vector<double> b{1.0, -1.0};
  const std::vector<double> alpha{0.25, 0.5};
  const std::vector<double> weights{b[0] * alpha[0], b[1] * alpha[1]};
  std::vector<double> x(2);
  a.spmv_transpose(weights, x);
  EXPECT_GE(svm_duality_gap(a, b, alpha, x, 1.0, SvmLoss::kL1), -1e-12);
  EXPECT_GE(svm_duality_gap(a, b, alpha, x, 1.0, SvmLoss::kL2), -1e-12);
}

TEST(LassoLambdaMax, MatchesInfinityNormOfAtb) {
  const la::CsrMatrix a = la::CsrMatrix::from_triplets(
      2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, -3.0}});
  const std::vector<double> b{1.0, 1.0};
  // Aᵀb = [1, −3, 2] → λ_max = 3.
  EXPECT_DOUBLE_EQ(lasso_lambda_max(a, b), 3.0);
}

TEST(LassoLambdaMax, ZeroAtLambdaMax) {
  // At λ ≥ λ_max the zero vector is optimal: the objective at 0 must not
  // exceed the objective at small perturbations.
  const la::CsrMatrix a = la::CsrMatrix::from_triplets(
      3, 2, {{0, 0, 1.0}, {1, 1, 1.0}, {2, 0, 0.5}});
  const std::vector<double> b{1.0, -2.0, 0.25};
  const double lmax = lasso_lambda_max(a, b);
  const std::vector<double> zero{0.0, 0.0};
  const double f0 = lasso_objective(a, b, zero, lmax);
  for (double eps : {-1e-3, 1e-3}) {
    for (std::size_t j = 0; j < 2; ++j) {
      std::vector<double> x{0.0, 0.0};
      x[j] = eps;
      EXPECT_GE(lasso_objective(a, b, x, lmax) + 1e-12, f0);
    }
  }
}

}  // namespace
}  // namespace sa::core
