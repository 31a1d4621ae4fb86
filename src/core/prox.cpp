#include "core/prox.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "core/detail.hpp"
#include "la/vector_ops.hpp"

namespace sa::core {

double soft_threshold(double beta, double alpha) {
  const double magnitude = std::abs(beta) - alpha;
  if (magnitude <= 0.0) return 0.0;
  return beta >= 0.0 ? magnitude : -magnitude;
}

void soft_threshold(std::span<double> beta, double alpha) {
  for (double& v : beta) v = soft_threshold(v, alpha);
}

double elastic_net_prox(double v, double eta, double l1, double l2) {
  return soft_threshold(v, eta * l1) / (1.0 + 2.0 * eta * l2);
}

void elastic_net_prox(std::span<double> v, double eta, double l1, double l2) {
  for (double& e : v) e = elastic_net_prox(e, eta, l1, l2);
}

void group_soft_threshold(std::span<double> v, double alpha) {
  const double norm = la::nrm2(v);
  if (norm <= alpha) {
    la::fill(v, 0.0);
    return;
  }
  la::scale(1.0 - alpha / norm, v);
}

GroupStructure GroupStructure::uniform(std::size_t n,
                                       std::size_t group_size) {
  SA_CHECK(group_size > 0, "GroupStructure::uniform: empty group size");
  GroupStructure g;
  g.offsets.push_back(0);
  for (std::size_t start = 0; start < n; start += group_size)
    g.offsets.push_back(std::min(start + group_size, n));
  if (n == 0) g.offsets.push_back(0);
  return g;
}

void group_lasso_prox(std::span<double> x, double alpha,
                      const GroupStructure& groups) {
  SA_CHECK(!groups.offsets.empty() && groups.offsets.back() == x.size(),
           "group_lasso_prox: group structure does not cover x");
  for (std::size_t g = 0; g < groups.num_groups(); ++g) {
    const std::size_t begin = groups.offsets[g];
    const std::size_t end = groups.offsets[g + 1];
    group_soft_threshold(x.subspan(begin, end - begin), alpha);
  }
}

double detail::ProxSpec::apply(double v, double eta) const {
  switch (penalty) {
    case Penalty::kLasso:
      return soft_threshold(v, lambda * eta);
    case Penalty::kElasticNet:
      return elastic_net_prox(v, eta, lambda * l1_weight, lambda * l2_weight);
  }
  throw PreconditionError("ProxSpec: unknown penalty");
}

}  // namespace sa::core
