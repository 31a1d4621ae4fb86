// Feature scaling / preprocessing.
//
// Coordinate-descent step sizes depend on column norms, so badly scaled
// features slow convergence.  normalize_columns provides the standard
// unit-norm column scaling used with LIBSVM data (the CLI's --normalize).
#pragma once

#include <utility>
#include <vector>

#include "data/dataset.hpp"

namespace sa::data {

/// Per-column scale factors applied by normalize_columns (1/||col||, or
/// 1 for empty columns); needed to map solutions back to original units.
struct ColumnScaling {
  std::vector<double> factors;

  /// Maps a solution of the scaled problem back to original feature
  /// units:  x_original[j] = x_scaled[j] · factors[j].
  std::vector<double> unscale_solution(
      const std::vector<double>& x_scaled) const;
};

/// Returns a copy of `dataset` with every column scaled to unit 2-norm
/// (empty columns untouched), plus the scaling used.
std::pair<Dataset, ColumnScaling> normalize_columns(const Dataset& dataset);

}  // namespace sa::data
