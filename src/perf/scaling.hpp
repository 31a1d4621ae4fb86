// Analytic strong-scaling and speedup model.
//
// Combines the Table I cost formulas (costs.hpp) with an α-β-γ machine
// (dist/cost_model.hpp) to predict running times, speedups, and the best
// unrolling depth s — the quantities behind the paper's Figures 3–4 and
// Table V.  The model is exactly the one the paper reasons with: SA trades
// an s-fold latency reduction for s-fold flop/bandwidth increases, so
// speedup rises with s until bandwidth/compute terms take over.
#pragma once

#include <cstddef>
#include <vector>

#include "dist/cost_model.hpp"
#include "perf/costs.hpp"

namespace sa::perf {

/// Seconds attributed to each α-β-γ term for a cost tuple.
dist::CostBreakdown price_costs(const Costs& costs,
                                const dist::MachineParams& machine);

/// Predicted speedup of SA over non-SA at unrolling depth s, broken into
/// the paper's Figure 4(e–h) components.
struct SpeedupBreakdown {
  std::size_t s = 1;
  double total = 1.0;          ///< T_nonSA / T_SA
  double communication = 1.0;  ///< (α·L + β·W) ratio
  double computation = 1.0;    ///< (γ·F) ratio
};

/// Sweeps s over `s_values` for a BCD problem on a machine (Figure 4 e–h).
std::vector<SpeedupBreakdown> bcd_speedup_sweep(
    const BcdParams& base, const std::vector<std::size_t>& s_values,
    const dist::MachineParams& machine);

/// Sweeps s for an SVM problem (Table V exploration).
std::vector<SpeedupBreakdown> svm_speedup_sweep(
    const SvmParams& base, const std::vector<std::size_t>& s_values,
    const dist::MachineParams& machine);

/// One point of a strong-scaling series (Figure 4 a–d).
struct ScalingPoint {
  int processors = 1;
  double seconds_non_sa = 0.0;
  double seconds_sa = 0.0;  ///< at the best s for this P
  std::size_t best_s = 1;
};

/// Strong-scaling series: for each P, prices non-SA and the best-s SA run.
std::vector<ScalingPoint> bcd_strong_scaling(
    const BcdParams& base, const std::vector<int>& processor_counts,
    const std::vector<std::size_t>& s_candidates,
    const dist::MachineParams& machine);

/// Returns the s among `candidates` minimizing modelled SA-BCD time.
std::size_t best_s_bcd(const BcdParams& base,
                       const std::vector<std::size_t>& candidates,
                       const dist::MachineParams& machine);

}  // namespace sa::perf
