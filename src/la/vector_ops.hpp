// BLAS-1 style kernels on contiguous double spans.
//
// These free functions are the innermost building blocks of every solver in
// the library.  They are deliberately simple, allocation-free, and operate
// on std::span so callers can pass std::vector, raw arrays, or matrix
// rows/columns without copies.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sa::la {

/// Minimum flop count before a kernel forks an OpenMP team.  Shared by
/// every parallel kernel in the layer (Gram, dots, spmv) so they all
/// cross from serial to threaded at the same work size.
inline constexpr std::size_t kParallelFlopThreshold = std::size_t{1} << 19;

/// Returns the dot product  x' * y.  Both spans must have equal length.
double dot(std::span<const double> x, std::span<const double> y);

/// y := alpha * x + y  (classic axpy).  Spans must have equal length.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x := alpha * x.
void scale(double alpha, std::span<double> x);

/// Returns the Euclidean norm ||x||_2.
double nrm2(std::span<const double> x);

/// Returns the 1-norm  sum_i |x_i|.
double asum(std::span<const double> x);

/// Returns the infinity norm  max_i |x_i|  (0 for empty spans).
double inf_norm(std::span<const double> x);

/// dst := src.  Spans must have equal length (no-op when both empty).
void copy(std::span<const double> src, std::span<double> dst);

/// x := value for every element.
void fill(std::span<double> x, double value);

/// Returns sum_i x_i.
double sum(std::span<const double> x);

/// Returns the squared Euclidean norm  ||x||_2^2  without the sqrt.
double nrm2_squared(std::span<const double> x);

/// Returns the largest relative elementwise difference
///   max_i |x_i - y_i| / max(1, |x_i|, |y_i|),
/// a scale-invariant distance used by the SA-vs-non-SA equivalence tests.
double max_rel_diff(std::span<const double> x, std::span<const double> y);

/// Convenience owning helpers used throughout tests and examples.
std::vector<double> zeros(std::size_t n);
std::vector<double> constant(std::size_t n, double value);

}  // namespace sa::la
