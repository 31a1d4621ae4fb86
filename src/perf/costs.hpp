// Theoretical algorithm costs — the paper's Table I, plus the matching
// formulas for SVM/SA-SVM.
//
// All quantities are per-processor, along the critical path, in the same
// units as the paper: F in flops, M in words of memory, L in latency
// rounds (messages), W in words moved.
#pragma once

#include <cstddef>

namespace sa::perf {

/// Problem/machine-independent parameters of a BCD run (Table I symbols).
struct BcdParams {
  std::size_t iterations = 0;  ///< H
  std::size_t block_size = 1;  ///< µ
  std::size_t s = 1;           ///< recurrence-unrolling depth (1 = non-SA)
  double density = 1.0;        ///< f = nnz(A)/(m·n)
  std::size_t rows = 0;        ///< m (data points)
  std::size_t cols = 0;        ///< n (features)
  int processors = 1;          ///< P
  /// Words the piggy-backed RoundMessage trailer adds to each round's
  /// single collective (objective partial + stop flags; 0–2 in practice).
  /// The single-message round plane means enabled stopping criteria cost
  /// bandwidth only — L is unchanged, W grows by flag_words per round.
  std::size_t flag_words = 0;
};

/// The four Table I cost terms.
struct Costs {
  double flops = 0.0;      ///< F
  double memory = 0.0;     ///< M (words per processor)
  double latency = 0.0;    ///< L (messages)
  double bandwidth = 0.0;  ///< W (words)
};

/// Table I row 1: classical accBCD.
///   F = O(H·µ²·f·m/P + H·µ³),  M = O(f·m·n/P + m/P + µ² + n),
///   L = O(H·log P),            W = O(H·µ²·log P).
Costs accbcd_costs(const BcdParams& p);

/// Table I row 2: SA-accBCD.
///   F = O(H·µ²·s·f·m/P + H·µ³),  M = O(f·m·n/P + m/P + µ²s² + n),
///   L = O((H/s)·log P),          W = O(H·s·µ²·log P).
Costs sa_accbcd_costs(const BcdParams& p);

/// Parameters of a dual-CD SVM run.
struct SvmParams {
  std::size_t iterations = 0;  ///< H
  std::size_t s = 1;           ///< unrolling depth (1 = non-SA)
  double density = 1.0;        ///< f
  std::size_t rows = 0;        ///< m (data points)
  std::size_t cols = 0;        ///< n (features)
  int processors = 1;          ///< P
  /// Piggy-backed trailer words per round (see BcdParams::flag_words).
  std::size_t flag_words = 0;
};

/// SVM dual CD (Algorithm 3): per iteration one allreduce of O(1) words,
/// O(f·n/P) flops for the sampled row.
Costs svm_costs(const SvmParams& p);

/// SA-SVM (Algorithm 4): every s iterations one allreduce of O(s²) words,
/// O(s²·f·n/P) flops for the s×s Gram.
Costs sa_svm_costs(const SvmParams& p);

}  // namespace sa::perf
