#include "la/eigen.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace sa::la {

namespace {

/// Defaults of jacobi_eigenvalues, shared with largest_eigenvalue_psd so
/// both entry points perform identical rotations.
constexpr double kJacobiTolerance = 1e-14;
constexpr std::size_t kJacobiMaxSweeps = 64;

/// In-place cyclic Jacobi sweeps; on return the diagonal of `a` holds the
/// eigenvalues (unsorted).
void jacobi_sweeps(DenseMatrix& a, double tolerance,
                   std::size_t max_sweeps) {
  const std::size_t n = a.rows();
  // Frobenius norm as a plain scalar loop (not the ISA-dispatched nrm2),
  // so the stop and skip thresholds — and the result — match at every ISA.
  double frob_sq = 0.0;
  for (const double x : a.data()) frob_sq += x * x;
  const double scale_ref = std::max(std::sqrt(frob_sq), 1e-300);
  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) off += a(p, q) * a(p, q);
    if (std::sqrt(off) <= tolerance * scale_ref) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) <= tolerance * scale_ref / (n * n)) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0.0)
                             ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                             : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        // Apply the rotation J(p, q, θ) on both sides: A := JᵀAJ.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
      }
    }
  }
}

}  // namespace

double largest_eigenvalue_psd(DenseMatrix& a) {
  SA_CHECK(a.rows() == a.cols(), "largest_eigenvalue_psd: matrix not square");
  const std::size_t n = a.rows();
  if (n == 0) return 0.0;
  jacobi_sweeps(a, kJacobiTolerance, kJacobiMaxSweeps);
  double largest = a(0, 0);
  for (std::size_t i = 1; i < n; ++i) largest = std::max(largest, a(i, i));
  return largest;
}

std::vector<double> jacobi_eigenvalues(DenseMatrix a, double tolerance,
                                       std::size_t max_sweeps) {
  SA_CHECK(a.rows() == a.cols(), "jacobi_eigenvalues: matrix not square");
  const std::size_t n = a.rows();
  if (n == 0) return {};
  jacobi_sweeps(a, tolerance, max_sweeps);
  std::vector<double> eig(n);
  for (std::size_t i = 0; i < n; ++i) eig[i] = a(i, i);
  std::sort(eig.begin(), eig.end());
  return eig;
}

}  // namespace sa::la
