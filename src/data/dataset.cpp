#include "data/dataset.hpp"

#include "common/check.hpp"

namespace sa::data {

bool Dataset::has_binary_labels() const {
  for (double v : b) {
    if (v != 1.0 && v != -1.0) return false;
  }
  return !b.empty();
}

void Dataset::validate() const {
  SA_CHECK(b.size() == a.rows(), "Dataset: label count must equal row count");
}

}  // namespace sa::data
