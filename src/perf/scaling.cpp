#include "perf/scaling.hpp"

#include <limits>

#include "common/check.hpp"

namespace sa::perf {

dist::CostBreakdown price_costs(const Costs& costs,
                                const dist::MachineParams& machine) {
  dist::CostBreakdown b;
  b.compute_seconds = machine.gamma * costs.flops;
  b.bandwidth_seconds = machine.beta * costs.bandwidth;
  b.latency_seconds = machine.alpha * costs.latency;
  return b;
}

namespace {

SpeedupBreakdown breakdown_from(const dist::CostBreakdown& ref,
                                const dist::CostBreakdown& sa,
                                std::size_t s) {
  SpeedupBreakdown out;
  out.s = s;
  out.total = sa.total_seconds() > 0.0
                  ? ref.total_seconds() / sa.total_seconds()
                  : 1.0;
  out.communication = sa.communication_seconds() > 0.0
                          ? ref.communication_seconds() /
                                sa.communication_seconds()
                          : 1.0;
  out.computation = sa.compute_seconds > 0.0
                        ? ref.compute_seconds / sa.compute_seconds
                        : 1.0;
  return out;
}

}  // namespace

std::vector<SpeedupBreakdown> bcd_speedup_sweep(
    const BcdParams& base, const std::vector<std::size_t>& s_values,
    const dist::MachineParams& machine) {
  BcdParams ref = base;
  ref.s = 1;
  const dist::CostBreakdown t_ref = price_costs(accbcd_costs(ref), machine);
  std::vector<SpeedupBreakdown> out;
  out.reserve(s_values.size());
  for (std::size_t s : s_values) {
    BcdParams p = base;
    p.s = s;
    out.push_back(
        breakdown_from(t_ref, price_costs(sa_accbcd_costs(p), machine), s));
  }
  return out;
}

std::vector<SpeedupBreakdown> svm_speedup_sweep(
    const SvmParams& base, const std::vector<std::size_t>& s_values,
    const dist::MachineParams& machine) {
  SvmParams ref = base;
  ref.s = 1;
  const dist::CostBreakdown t_ref = price_costs(svm_costs(ref), machine);
  std::vector<SpeedupBreakdown> out;
  out.reserve(s_values.size());
  for (std::size_t s : s_values) {
    SvmParams p = base;
    p.s = s;
    out.push_back(
        breakdown_from(t_ref, price_costs(sa_svm_costs(p), machine), s));
  }
  return out;
}

std::size_t best_s_bcd(const BcdParams& base,
                       const std::vector<std::size_t>& candidates,
                       const dist::MachineParams& machine) {
  SA_CHECK(!candidates.empty(), "best_s_bcd: no candidates");
  std::size_t best = candidates.front();
  double best_time = std::numeric_limits<double>::infinity();
  for (std::size_t s : candidates) {
    BcdParams p = base;
    p.s = s;
    const double t = price_costs(sa_accbcd_costs(p), machine).total_seconds();
    if (t < best_time) {
      best_time = t;
      best = s;
    }
  }
  return best;
}

std::vector<ScalingPoint> bcd_strong_scaling(
    const BcdParams& base, const std::vector<int>& processor_counts,
    const std::vector<std::size_t>& s_candidates,
    const dist::MachineParams& machine) {
  std::vector<ScalingPoint> out;
  out.reserve(processor_counts.size());
  for (int p : processor_counts) {
    BcdParams params = base;
    params.processors = p;
    ScalingPoint point;
    point.processors = p;
    params.s = 1;
    point.seconds_non_sa =
        price_costs(accbcd_costs(params), machine).total_seconds();
    point.best_s = best_s_bcd(params, s_candidates, machine);
    params.s = point.best_s;
    point.seconds_sa =
        price_costs(sa_accbcd_costs(params), machine).total_seconds();
    out.push_back(point);
  }
  return out;
}

}  // namespace sa::perf
