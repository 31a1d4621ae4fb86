// Dataset container: sparse design matrix + labels + provenance metadata.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "la/csr.hpp"

namespace sa::data {

/// A supervised-learning dataset: A is m×n with m data points (rows) and
/// n features (columns); b holds one target/label per data point.
struct Dataset {
  std::string name;
  la::CsrMatrix a;        ///< m × n design matrix, CSR.
  std::vector<double> b;  ///< length-m targets (±1 for classification).

  std::size_t num_points() const { return a.rows(); }
  std::size_t num_features() const { return a.cols(); }
  std::size_t nnz() const { return a.nnz(); }
  double density() const { return a.density(); }

  /// True when every label is exactly +1 or −1.
  bool has_binary_labels() const;

  /// Validates shape consistency; throws sa::PreconditionError on failure.
  void validate() const;
};

}  // namespace sa::data
