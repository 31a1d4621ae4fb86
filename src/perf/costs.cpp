#include "perf/costs.hpp"

#include <cmath>

#include "common/check.hpp"

namespace sa::perf {

namespace {

double log2_ceil(int p) {
  SA_CHECK(p >= 1, "costs: processors must be >= 1");
  double rounds = 0.0;
  int span = 1;
  while (span < p) {
    span *= 2;
    rounds += 1.0;
  }
  return rounds;
}

}  // namespace

Costs accbcd_costs(const BcdParams& p) {
  const double h = static_cast<double>(p.iterations);
  const double mu = static_cast<double>(p.block_size);
  const double f = p.density;
  const double m = static_cast<double>(p.rows);
  const double n = static_cast<double>(p.cols);
  const double pr = static_cast<double>(p.processors);
  const double logp = log2_ceil(p.processors);

  Costs c;
  c.flops = h * mu * mu * f * m / pr + h * mu * mu * mu;
  c.memory = f * m * n / pr + m / pr + mu * mu + n;
  // Single-message round: the piggy-backed trailer rides the round's one
  // collective — H rounds of flag_words extra words, zero extra latency.
  c.latency = h * logp;
  c.bandwidth = (h * mu * mu + h * static_cast<double>(p.flag_words)) * logp;
  return c;
}

Costs sa_accbcd_costs(const BcdParams& p) {
  SA_CHECK(p.s >= 1, "sa_accbcd_costs: s must be >= 1");
  const double h = static_cast<double>(p.iterations);
  const double mu = static_cast<double>(p.block_size);
  const double s = static_cast<double>(p.s);
  const double f = p.density;
  const double m = static_cast<double>(p.rows);
  const double n = static_cast<double>(p.cols);
  const double pr = static_cast<double>(p.processors);
  const double logp = log2_ceil(p.processors);

  Costs c;
  c.flops = h * mu * mu * s * f * m / pr + h * mu * mu * mu;
  c.memory = f * m * n / pr + m / pr + mu * mu * s * s + n;
  // H/s rounds, each ONE message carrying the s²µ² fused payload plus the
  // piggy-backed trailer words.
  c.latency = (h / s) * logp;
  c.bandwidth =
      (h * s * mu * mu + (h / s) * static_cast<double>(p.flag_words)) * logp;
  return c;
}

Costs svm_costs(const SvmParams& p) {
  const double h = static_cast<double>(p.iterations);
  const double f = p.density;
  const double n = static_cast<double>(p.cols);
  const double pr = static_cast<double>(p.processors);
  const double logp = log2_ceil(p.processors);

  Costs c;
  c.flops = h * f * n / pr;
  c.memory = f * static_cast<double>(p.rows) * n / pr + n / pr +
             static_cast<double>(p.rows);
  c.latency = h * logp;
  // [A_i·A_iᵀ | A_i·x | trailer] per iteration — still one message.
  c.bandwidth = h * (2.0 + static_cast<double>(p.flag_words)) * logp;
  return c;
}

Costs sa_svm_costs(const SvmParams& p) {
  SA_CHECK(p.s >= 1, "sa_svm_costs: s must be >= 1");
  const double h = static_cast<double>(p.iterations);
  const double s = static_cast<double>(p.s);
  const double f = p.density;
  const double n = static_cast<double>(p.cols);
  const double pr = static_cast<double>(p.processors);
  const double logp = log2_ceil(p.processors);

  Costs c;
  c.flops = h * s * f * n / pr;  // s×s Gram every s iterations
  c.memory = f * static_cast<double>(p.rows) * n / pr + n / pr +
             static_cast<double>(p.rows) + s * s;
  c.latency = (h / s) * logp;
  // s² words every s iterations → H·s overall, plus the trailer on each
  // of the H/s single-message rounds.
  c.bandwidth =
      (h * s + (h / s) * static_cast<double>(p.flag_words)) * logp;
  return c;
}

}  // namespace sa::perf
