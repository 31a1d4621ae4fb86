#include "core/svm.hpp"

#include "common/check.hpp"

namespace sa::core {

std::vector<double> svm_predict(const la::CsrMatrix& a,
                                std::span<const double> x) {
  std::vector<double> margins(a.rows());
  a.spmv(x, margins);
  for (double& v : margins) v = v >= 0.0 ? 1.0 : -1.0;
  return margins;
}

double svm_accuracy(const la::CsrMatrix& a, std::span<const double> b,
                    std::span<const double> x) {
  SA_CHECK(b.size() == a.rows(), "svm_accuracy: label count mismatch");
  if (a.rows() == 0) return 0.0;
  const std::vector<double> pred = svm_predict(a, x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    if (pred[i] == b[i]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(pred.size());
}

}  // namespace sa::core
