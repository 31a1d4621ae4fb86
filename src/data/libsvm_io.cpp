#include "data/libsvm_io.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/check.hpp"

namespace sa::data {

namespace {

/// Largest accepted feature count: every ℝ^n vector must be addressable
/// in bytes, and the n + 1 offsets of the transposed CSR must not wrap.
constexpr std::size_t kMaxFeatures =
    std::numeric_limits<std::size_t>::max() / sizeof(double);

/// A token as quoted in an error message, clipped so an overlong token
/// cannot balloon the message.
std::string quoted(std::string_view token) {
  constexpr std::size_t kMaxQuoted = 32;
  std::string out(1, '\'');
  out.append(token.substr(0, kMaxQuoted));
  if (token.size() <= kMaxQuoted) return out + "'";
  return out + "...' (" + std::to_string(token.size()) + " chars)";
}

/// Parses a finite double from a token; throws with line context on
/// failure.  Accepts an explicit leading '+' (LIBSVM labels are often
/// "+1"), which std::from_chars itself rejects.  `what` names the field
/// ("label" or "value") in the message.
double parse_double(std::string_view token, const char* what,
                    std::size_t line_no) {
  if (!token.empty() && token.front() == '+') token.remove_prefix(1);
  // std::from_chars<double> is available in libstdc++ >= 11.
  double value = 0.0;
  const char* first = token.data();
  const char* last = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  SA_CHECK(ec == std::errc() && ptr == last,
           std::string("libsvm: bad numeric ") + what + " " + quoted(token) +
               " on line " + std::to_string(line_no));
  // from_chars accepts "nan" and "inf"; a non-finite entry would poison
  // every sum it reaches.
  SA_CHECK(std::isfinite(value),
           std::string("libsvm: non-finite ") + what + " " + quoted(token) +
               " on line " + std::to_string(line_no));
  return value;
}

std::size_t parse_index(std::string_view token, std::size_t line_no) {
  std::size_t value = 0;
  const char* first = token.data();
  const char* last = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  SA_CHECK(ec == std::errc() && ptr == last,
           "libsvm: bad index token " + quoted(token) + " on line " +
               std::to_string(line_no));
  return value;
}

}  // namespace

Dataset read_libsvm(std::istream& in, const LibsvmReadOptions& options) {
  std::vector<double> labels;
  std::vector<std::size_t> indptr{0};
  std::vector<std::size_t> indices;
  std::vector<double> values;
  std::size_t max_index = 0;  // 0-based maximum feature index seen

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments and skip blank lines.
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.resize(hash);
    std::istringstream tokens(line);
    std::string token;
    if (!(tokens >> token)) continue;  // blank line

    labels.push_back(parse_double(token, "label", line_no));

    std::size_t prev_index = 0;
    bool first_feature = true;
    while (tokens >> token) {
      const auto colon = token.find(':');
      SA_CHECK(colon != std::string::npos,
               "libsvm: expected index:value token on line " +
                   std::to_string(line_no));
      std::string_view tv(token);
      std::size_t idx = parse_index(tv.substr(0, colon), line_no);
      if (!options.zero_based) {
        SA_CHECK(idx >= 1, "libsvm: 1-based index 0 on line " +
                               std::to_string(line_no));
        idx -= 1;
      }
      SA_CHECK(idx < kMaxFeatures,
               "libsvm: feature index " + quoted(tv.substr(0, colon)) +
                   " on line " + std::to_string(line_no) +
                   " overflows the feature count");
      SA_CHECK(first_feature || idx > prev_index,
               "libsvm: indices must be strictly increasing on line " +
                   std::to_string(line_no));
      const double value =
          parse_double(tv.substr(colon + 1), "value", line_no);
      indices.push_back(idx);
      values.push_back(value);
      prev_index = idx;
      first_feature = false;
      max_index = std::max(max_index, idx);
    }
    indptr.push_back(indices.size());
  }

  std::size_t num_features = options.num_features;
  if (num_features == 0) {
    num_features = indices.empty() ? 0 : max_index + 1;
  } else {
    SA_CHECK(indices.empty() || max_index < num_features,
             "libsvm: feature index exceeds declared num_features");
  }

  Dataset d;
  d.name = options.name;
  d.a = la::CsrMatrix(labels.size(), num_features, std::move(indptr),
                      std::move(indices), std::move(values));
  d.b = std::move(labels);
  return d;
}

Dataset read_libsvm_file(const std::string& path,
                         const LibsvmReadOptions& options) {
  std::ifstream in(path);
  SA_CHECK(in.good(), "libsvm: cannot open file: " + path);
  LibsvmReadOptions opts = options;
  if (opts.name == "libsvm") opts.name = path;
  return read_libsvm(in, opts);
}

void write_libsvm(std::ostream& out, const Dataset& dataset) {
  dataset.validate();
  for (std::size_t i = 0; i < dataset.num_points(); ++i) {
    out << dataset.b[i];
    const auto idx = dataset.a.row_indices(i);
    const auto val = dataset.a.row_values(i);
    for (std::size_t k = 0; k < idx.size(); ++k) {
      out << ' ' << (idx[k] + 1) << ':' << val[k];
    }
    out << '\n';
  }
}

void write_libsvm_file(const std::string& path, const Dataset& dataset) {
  std::ofstream out(path);
  SA_CHECK(out.good(), "libsvm: cannot open file for writing: " + path);
  write_libsvm(out, dataset);
}

}  // namespace sa::data
