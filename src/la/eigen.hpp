// Small symmetric eigensolver: cyclic Jacobi.
//
// The BCD solvers need the largest eigenvalue of the µ×µ sampled Gram
// matrix every iteration (the optimal block Lipschitz constant, line 10 of
// the paper's Algorithm 1).  µ is small (1–32 in the paper), so one dense
// method serves every use: cyclic Jacobi rotations, for the step sizes
// inside the solvers and for tests.  The sweep is
// plain scalar code, so its result does not depend on the kernel ISA.
#pragma once

#include <cstddef>
#include <vector>

#include "la/dense.hpp"

namespace sa::la {

/// Returns the largest eigenvalue of a symmetric positive semi-definite
/// matrix.  Runs the Jacobi sweeps in place: on return `a` is overwritten
/// (its diagonal holds the unsorted spectrum).  Performs no allocation.
/// An empty matrix gives 0.0, and so (exactly) does a zero matrix.  The
/// result is bitwise `jacobi_eigenvalues(a).back()` (default tolerances)
/// on the original `a`.
double largest_eigenvalue_psd(DenseMatrix& a);

/// Returns all eigenvalues of a symmetric matrix in ascending order using
/// the cyclic Jacobi method (no eigenvectors).
std::vector<double> jacobi_eigenvalues(DenseMatrix a,
                                       double tolerance = 1e-14,
                                       std::size_t max_sweeps = 64);

}  // namespace sa::la
