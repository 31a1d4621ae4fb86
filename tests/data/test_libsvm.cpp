// Tests for the LIBSVM reader/writer.
#include "data/libsvm_io.hpp"

#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace sa::data {
namespace {

TEST(LibsvmRead, ParsesBasicFile) {
  std::istringstream in("+1 1:0.5 3:2\n-1 2:1.5\n");
  const Dataset d = read_libsvm(in);
  EXPECT_EQ(d.num_points(), 2u);
  EXPECT_EQ(d.num_features(), 3u);
  EXPECT_EQ(d.nnz(), 3u);
  EXPECT_DOUBLE_EQ(d.b[0], 1.0);
  EXPECT_DOUBLE_EQ(d.b[1], -1.0);
  EXPECT_DOUBLE_EQ(d.a.to_dense()(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(d.a.to_dense()(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(d.a.to_dense()(1, 1), 1.5);
}

TEST(LibsvmRead, HandlesEmptyLinesAndComments) {
  std::istringstream in("\n# full comment line\n+1 1:1 # trailing comment\n\n");
  const Dataset d = read_libsvm(in);
  EXPECT_EQ(d.num_points(), 1u);
  EXPECT_EQ(d.nnz(), 1u);
}

TEST(LibsvmRead, PointWithNoFeaturesIsAllowed) {
  std::istringstream in("3.5\n-1 1:2\n");
  const Dataset d = read_libsvm(in);
  EXPECT_EQ(d.num_points(), 2u);
  EXPECT_EQ(d.a.row_nnz(0), 0u);
  EXPECT_DOUBLE_EQ(d.b[0], 3.5);
}

TEST(LibsvmRead, RegressionTargetsSupported) {
  std::istringstream in("2.75 1:1\n-0.5 1:2\n");
  const Dataset d = read_libsvm(in);
  EXPECT_FALSE(d.has_binary_labels());
  EXPECT_DOUBLE_EQ(d.b[0], 2.75);
}

TEST(LibsvmRead, RespectsDeclaredFeatureCount) {
  std::istringstream in("+1 2:1\n");
  LibsvmReadOptions opts;
  opts.num_features = 10;
  const Dataset d = read_libsvm(in, opts);
  EXPECT_EQ(d.num_features(), 10u);
}

TEST(LibsvmRead, RejectsIndexBeyondDeclaredCount) {
  std::istringstream in("+1 11:1\n");
  LibsvmReadOptions opts;
  opts.num_features = 10;
  EXPECT_THROW(read_libsvm(in, opts), sa::PreconditionError);
}

TEST(LibsvmRead, ZeroBasedMode) {
  std::istringstream in("+1 0:5\n");
  LibsvmReadOptions opts;
  opts.zero_based = true;
  const Dataset d = read_libsvm(in, opts);
  EXPECT_DOUBLE_EQ(d.a.to_dense()(0, 0), 5.0);
}

TEST(LibsvmRead, RejectsZeroIndexInOneBasedMode) {
  std::istringstream in("+1 0:5\n");
  EXPECT_THROW(read_libsvm(in), sa::PreconditionError);
}

TEST(LibsvmRead, RejectsNonIncreasingIndices) {
  std::istringstream in("+1 2:1 2:2\n");
  EXPECT_THROW(read_libsvm(in), sa::PreconditionError);
  std::istringstream in2("+1 3:1 2:2\n");
  EXPECT_THROW(read_libsvm(in2), sa::PreconditionError);
}

TEST(LibsvmRead, RejectsMalformedTokens) {
  std::istringstream bad_pair("+1 1\n");
  EXPECT_THROW(read_libsvm(bad_pair), sa::PreconditionError);
  std::istringstream bad_value("+1 1:abc\n");
  EXPECT_THROW(read_libsvm(bad_value), sa::PreconditionError);
  std::istringstream bad_index("+1 x:1\n");
  EXPECT_THROW(read_libsvm(bad_index), sa::PreconditionError);
}

/// Asserts that parsing `text` is rejected with a message containing
/// every one of `needles`.
void expect_rejected(const std::string& text,
                     std::initializer_list<std::string> needles,
                     const LibsvmReadOptions& opts = {}) {
  std::istringstream in(text);
  try {
    (void)read_libsvm(in, opts);
    FAIL() << "accepted: " << text;
  } catch (const sa::PreconditionError& e) {
    const std::string what = e.what();
    for (const std::string& needle : needles)
      EXPECT_NE(what.find(needle), std::string::npos)
          << "'" << needle << "' missing from: " << what;
  }
}

TEST(LibsvmRead, RejectsIndexWhoseFeatureCountOverflows) {
  // 2^64 - 1 parses as a size_t; as a 1-based index it would make
  // n = 2^64 - 1 and wrap the n + 1 column offsets to zero.
  expect_rejected("1 18446744073709551615:1\n",
                  {"18446744073709551615", "line 1", "overflows"});
  LibsvmReadOptions zero_based;
  zero_based.zero_based = true;
  expect_rejected("1 0:1\n1 18446744073709551614:1\n",
                  {"line 2", "overflows"}, zero_based);
  // One past size_t is an out-of-range token, not a wrapped index.
  expect_rejected("1 18446744073709551616:1\n", {"bad index", "line 1"});
}

TEST(LibsvmRead, OverlongTokensAreClippedInTheMessage) {
  const std::string digits(5000, '9');
  std::istringstream in("1 1:" + digits + "e999\n");
  try {
    (void)read_libsvm(in);
    FAIL() << "accepted an out-of-range value";
  } catch (const sa::PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("5004 chars"), std::string::npos) << what;
    EXPECT_LT(what.size(), 400u);
  }
}

TEST(LibsvmRead, CrlfLineEndingsParseLikeLf) {
  std::istringstream lf("+1 1:0.5 3:2\n\n-1 2:1.5\n2.5\n");
  std::istringstream crlf("+1 1:0.5 3:2\r\n\r\n-1 2:1.5\r\n2.5\r\n");
  const Dataset a = read_libsvm(lf);
  const Dataset b = read_libsvm(crlf);
  const auto vec = [](auto span) {
    return std::vector<typename decltype(span)::value_type>(span.begin(),
                                                            span.end());
  };
  EXPECT_EQ(a.b, b.b);
  EXPECT_EQ(a.num_features(), b.num_features());
  EXPECT_EQ(vec(a.a.indptr()), vec(b.a.indptr()));
  EXPECT_EQ(vec(a.a.indices()), vec(b.a.indices()));
  EXPECT_EQ(vec(a.a.values()), vec(b.a.values()));
}

// A generated corpus: every malformed line, planted at every position of
// an otherwise valid file (LF and CRLF endings), must be rejected with a
// message that says what is wrong and names its line.
TEST(LibsvmRead, MalformedLineCorpusIsRejectedWithItsLineNumber) {
  const std::vector<std::string> valid = {"+1 1:0.5 4:1", "-1 2:-3",
                                          "0.25 3:1e-3 5:2", "-1"};
  struct Case {
    std::string line;
    std::string needle;
  };
  const std::vector<Case> malformed = {
      {"1 2:1 2:3", "strictly increasing"},         // duplicate index
      {"1 3:1 2:1", "strictly increasing"},         // unsorted indices
      {"1 0:1", "index 0"},                         // zero index (1-based)
      {"2:1 3:4", "bad numeric label"},             // missing label
      {"1 1:", "bad numeric value"},                // missing value
      {"1 :1", "bad index"},                        // missing index
      {"1 1;2", "expected index:value"},            // no colon
      {"1 -1:1", "bad index"},                      // negative index
      {"1 1:1x", "bad numeric value"},              // trailing garbage
      {"1 1:1e400", "bad numeric value"},           // overflows a double
      {"1 1:nan", "non-finite value"},
      {"1 1:-inf", "non-finite value"},
      {"1 1:infinity", "non-finite value"},
      {"NaN 1:1", "non-finite label"},
      {"+inf 1:1", "non-finite label"},
      {"1 " + std::string(400, '7') + ":1", "bad index"},  // overlong
      {std::string(400, '8') + "e999", "bad numeric label"},
      {"1 18446744073709551615:1", "overflows the feature count"},
  };
  for (const Case& bad : malformed) {
    for (const char* eol : {"\n", "\r\n"}) {
      for (std::size_t at = 0; at <= valid.size(); ++at) {
        std::string text;
        for (std::size_t i = 0; i < at; ++i) text += valid[i] + eol;
        text += bad.line + eol;
        for (std::size_t i = at; i < valid.size(); ++i)
          text += valid[i] + eol;
        SCOPED_TRACE(bad.line.substr(0, 40));
        expect_rejected(text, {bad.needle, "line " + std::to_string(at + 1)});
      }
    }
  }
}

TEST(LibsvmRead, MissingFileThrows) {
  EXPECT_THROW(read_libsvm_file("/nonexistent/path.libsvm"),
               sa::PreconditionError);
}

TEST(LibsvmRead, EmptyStreamYieldsEmptyDataset) {
  std::istringstream in("");
  const Dataset d = read_libsvm(in);
  EXPECT_EQ(d.num_points(), 0u);
  EXPECT_EQ(d.num_features(), 0u);
}

TEST(LibsvmWrite, RoundTripsThroughText) {
  std::istringstream in("+1 1:0.5 3:2\n-1 2:1.5\n2.5\n");
  LibsvmReadOptions opts;
  opts.num_features = 4;
  const Dataset original = read_libsvm(in, opts);

  std::ostringstream out;
  write_libsvm(out, original);
  std::istringstream back(out.str());
  LibsvmReadOptions opts2;
  opts2.num_features = 4;
  const Dataset round = read_libsvm(back, opts2);

  EXPECT_EQ(round.num_points(), original.num_points());
  EXPECT_EQ(round.nnz(), original.nnz());
  EXPECT_EQ(round.b, original.b);
  EXPECT_LT(round.a.to_dense().max_abs_diff(original.a.to_dense()), 1e-12);
}

TEST(LibsvmWrite, UsesOneBasedIndices) {
  Dataset d;
  d.name = "tiny";
  d.a = la::CsrMatrix::from_triplets(1, 2, {{0, 0, 1.0}});
  d.b = {1.0};
  std::ostringstream out;
  write_libsvm(out, d);
  EXPECT_EQ(out.str(), "1 1:1\n");
}

TEST(LibsvmFileIo, WriteThenReadFromDisk) {
  Dataset d;
  d.name = "disk";
  d.a = la::CsrMatrix::from_triplets(2, 3,
                                     {{0, 0, 1.5}, {1, 2, -2.0}});
  d.b = {1.0, -1.0};
  const std::string path = ::testing::TempDir() + "/sa_opt_test.libsvm";
  write_libsvm_file(path, d);
  LibsvmReadOptions opts;
  opts.num_features = 3;
  const Dataset back = read_libsvm_file(path, opts);
  EXPECT_EQ(back.num_points(), 2u);
  EXPECT_LT(back.a.to_dense().max_abs_diff(d.a.to_dense()), 1e-12);
  EXPECT_EQ(back.name, path);
}

}  // namespace
}  // namespace sa::data
