// Fixture: containers constructed with a size or contents inside a
// steady-state region allocate as surely as resize() does.  sa_lint must
// flag the sized declarations and leave default construction alone.
#include <map>
#include <string>
#include <vector>

namespace fx {

double sum_scratch(std::size_t n) {
  std::vector<double> junk(n);  // sized (line 11)
  double s = 0.0;
  for (const double v : junk) s += v;
  return s;
}

void hot_kernel(std::size_t n) {
  SA_STEADY_STATE;
  std::vector<double> none;                      // default: allowed
  std::vector<std::vector<int>> braces{};        // empty braces: allowed
  std::string label{"round"};                    // brace init (line 21)
  std::map<int, std::vector<double>> cache{{1, {2.0}}};  // (line 22)
  (void)none;
  (void)braces;
  (void)label;
  (void)cache;
  sum_scratch(n);
}

}  // namespace fx
