#include "data/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace sa::data {

double SplitMix64::next_normal() {
  if (has_cached_) {
    has_cached_ = false;
    return cached_;
  }
  // Box–Muller on two fresh uniforms; u1 is kept away from zero.
  double u1 = next_double();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = next_double();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_ = radius * std::sin(angle);
  has_cached_ = true;
  return radius * std::cos(angle);
}

CoordinateSampler::CoordinateSampler(std::size_t n, std::size_t block_size,
                                     std::uint64_t seed)
    : block_size_(block_size), rng_(seed), perm_(n) {
  SA_CHECK(n > 0, "CoordinateSampler: n must be positive");
  SA_CHECK(block_size > 0 && block_size <= n,
           "CoordinateSampler: block size must be in [1, n]");
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
}

std::vector<std::size_t> CoordinateSampler::next() {
  std::vector<std::size_t> out(block_size_);
  next_into(out);
  return out;
}

void CoordinateSampler::restore(std::uint64_t rng_state,
                                std::span<const std::size_t> perm) {
  const std::size_t n = perm_.size();
  SA_CHECK(perm.size() == n,
           "CoordinateSampler::restore: permutation has the wrong length");
  std::vector<bool> seen(n, false);
  for (const std::size_t v : perm) {
    SA_CHECK(v < n && !seen[v],
             "CoordinateSampler::restore: input is not a permutation of "
             "[0, n)");
    seen[v] = true;
  }
  rng_.set_state(rng_state);
  std::copy(perm.begin(), perm.end(), perm_.begin());
}

void CoordinateSampler::next_into(std::span<std::size_t> out) {
  SA_CHECK(out.size() == block_size_,
           "CoordinateSampler::next_into: output must have block_size entries");
  const std::size_t n = perm_.size();
  for (std::size_t l = 0; l < block_size_; ++l) {
    const std::size_t j = l + static_cast<std::size_t>(rng_.next_below(n - l));
    std::swap(perm_[l], perm_[j]);
    out[l] = perm_[l];
  }
}

}  // namespace sa::data
