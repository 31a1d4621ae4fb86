// Deterministic random number generation and coordinate sampling.
//
// The paper avoids communicating sampled coordinate indices by seeding the
// same generator on every rank (§III, §V).  Everything here is therefore
// fully deterministic given a seed, independent of platform and thread
// count: SplitMix64 for raw bits, unbiased bounded sampling by rejection,
// and a without-replacement block sampler (partial Fisher–Yates).
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace sa::data {

/// SplitMix64: tiny, fast, high-quality 64-bit generator.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) with rejection (no modulo bias).
  std::uint64_t next_below(std::uint64_t bound) {
    SA_CHECK(bound > 0, "next_below: bound must be positive");
    const std::uint64_t threshold = (0ULL - bound) % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Standard normal deviate (Box–Muller, one value per call pair cached).
  double next_normal();

  /// Raw generator state, for checkpoint/resume.  set_state() also clears
  /// the Box–Muller cache, so a restored generator replays the next_u64 /
  /// next_below sequence exactly; interleaved next_normal sequences resume
  /// at the next fresh pair.
  std::uint64_t state() const { return state_; }
  void set_state(std::uint64_t state) {
    state_ = state;
    has_cached_ = false;
  }

 private:
  std::uint64_t state_;
  bool has_cached_ = false;
  double cached_ = 0.0;
};

/// Samples `block_size` distinct coordinates from [0, n) per call,
/// uniformly without replacement, via partial Fisher–Yates shuffles of a
/// persistent index permutation.
///
/// Constructing samplers with the same (n, block_size, seed) on every rank
/// yields the same index sequence everywhere — the paper's trick for
/// communication-free coordinate selection.
class CoordinateSampler {
 public:
  CoordinateSampler(std::size_t n, std::size_t block_size,
                    std::uint64_t seed);

  std::size_t n() const { return perm_.size(); }
  std::size_t block_size() const { return block_size_; }

  /// Returns the next block of distinct coordinate indices (draw order).
  std::vector<std::size_t> next();

  /// Allocation-free variant: writes the next block into `out`, which
  /// must have exactly block_size() entries.  Same index sequence as
  /// next() — the two can be mixed freely.
  void next_into(std::span<std::size_t> out);

  /// Checkpoint/resume surface: the sampler's position is its generator
  /// state plus the persistent permutation the partial Fisher–Yates
  /// shuffles act on.
  std::uint64_t rng_state() const { return rng_.state(); }
  const std::vector<std::size_t>& permutation() const { return perm_; }

  /// Restores a saved position.  `perm` must be a permutation of [0, n)
  /// of length n(); validated before any state is overwritten.
  void restore(std::uint64_t rng_state, std::span<const std::size_t> perm);

 private:
  std::size_t block_size_;
  SplitMix64 rng_;
  std::vector<std::size_t> perm_;
};

}  // namespace sa::data
