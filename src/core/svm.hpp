// Prediction helpers for a trained linear SVM.  The solvers themselves
// are the "svm" / "sa-svm" ids of the solver registry (core/registry.hpp).
#pragma once

#include <span>
#include <vector>

#include "la/csr.hpp"

namespace sa::core {

/// Classifies points of `a` with weight vector x: sign(A_i·x) as ±1.
std::vector<double> svm_predict(const la::CsrMatrix& a,
                                std::span<const double> x);

/// Fraction of points whose prediction matches the ±1 labels.
double svm_accuracy(const la::CsrMatrix& a, std::span<const double> b,
                    std::span<const double> x);

}  // namespace sa::core
