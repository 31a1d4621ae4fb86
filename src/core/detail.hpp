// Internal helpers shared by the Lasso/SVM solver families.
// Not part of the public API.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <utility>

#include "core/solver.hpp"
#include "la/batch_view.hpp"
#include "la/workspace.hpp"

namespace sa::core::detail {

/// Flop estimate for one largest-eigenvalue computation on a k×k Gram
/// matrix (power iteration, ~16 sweeps of 2k² flops — deterministic
/// metering constant, not a measurement).
inline std::size_t eig_flops(std::size_t k) { return 32 * k * k; }

/// Serialized size of the upper triangle of a k×k symmetric matrix.
inline std::size_t triangle_size(std::size_t k) { return k * (k + 1) / 2; }

/// Random-access view of a packed row-major upper triangle, presented as
/// the full symmetric k×k matrix.  The s-step solvers read the Gram
/// directly out of the allreduce buffer through this view instead of
/// unpacking into a freshly allocated DenseMatrix every outer iteration.
/// Layout is single-sourced from la::packed_upper_index — the index the
/// Gram kernel writes.
class PackedUpper {
 public:
  PackedUpper(const double* packed, std::size_t k) : p_(packed), k_(k) {}

  double operator()(std::size_t i, std::size_t j) const {
    if (i > j) std::swap(i, j);
    return p_[la::packed_upper_index(i, j, k_)];
  }
  std::size_t dim() const { return k_; }

 private:
  const double* p_;
  std::size_t k_;
};

/// θ_h from θ_{h-1} (paper Algorithm 1 line 18 / Algorithm 2 line 9):
/// θ_h = (√(θ⁴ + 4θ²) − θ²) / 2.
inline double theta_next(double theta) {
  const double t2 = theta * theta;
  return 0.5 * (std::sqrt(t2 * t2 + 4.0 * t2) - t2);
}

/// Acceleration coefficient  (1 − q·θ)/θ²  from lines 16–17 of Algorithm 1.
inline double acceleration_coefficient(double theta, double q) {
  return (1.0 - q * theta) / (theta * theta);
}

/// Pre-sizes an engine's round workspace (the sampled-index slot
/// `idx_slot` and the view descriptor pools) for batches of up to `k_max`
/// members, so a short solve and a long one make identical allocations
/// (tests/core/test_steady_state.cpp).
inline void presize_round_workspace(la::Workspace& round,
                                    std::size_t idx_slot,
                                    std::size_t k_max) {
  round.indices(idx_slot, k_max);
  round.member_index_spans(k_max);
  round.member_value_spans(k_max);
  round.member_rows(k_max);
}

/// Elementwise proximal step for the supported penalties:
/// returns  prox_{eta·g}(v)  for the configured regularizer.
struct ProxSpec {
  Penalty penalty = Penalty::kLasso;
  double lambda = 0.0;
  double l1_weight = 1.0;
  double l2_weight = 0.0;

  double apply(double v, double eta) const;
};

}  // namespace sa::core::detail
