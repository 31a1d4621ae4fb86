// sa_lint conformance: each rule family is proven LIVE against a known-bad
// fixture mini-repo (tests/tools/fixtures/<case>/src/...) with exact
// file:line assertions, the waiver grammar is exercised both ways
// (justified waivers silence, bare waivers surface), and the clean
// negative pins the false-positive rate at zero.  The final test is the
// same whole-repo gate CI runs: src/ must be diagnostic-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "lint.hpp"

namespace {

using sa_lint::Diagnostic;
using sa_lint::LintResult;

LintResult lint_fixture(const std::string& name) {
  return sa_lint::run_lint(std::string(SA_LINT_FIXTURE_DIR) + "/" + name);
}

/// True when some diagnostic matches (file, line, rule) exactly.
bool has(const LintResult& r, const std::string& file, int line,
         const std::string& rule) {
  return std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                     [&](const Diagnostic& d) {
                       return d.file == file && d.line == line &&
                              d.rule == rule;
                     });
}

std::string dump(const LintResult& r) {
  std::string out;
  for (const Diagnostic& d : r.diagnostics) out += sa_lint::format(d) + "\n";
  return out;
}

TEST(SaLint, AllocHiddenBehindTwoCalls) {
  const LintResult r = lint_fixture("bad_alloc");
  // The push_back is two same-repo calls below the annotated region; the
  // diagnostic lands on the allocating line, not on the annotation.
  EXPECT_TRUE(has(r, "src/la/kernel.cpp", 14, "alloc")) << dump(r);
  ASSERT_EQ(r.diagnostics.size(), 1u) << dump(r);
  // The chain names both the steady-state root and the hop that hides
  // the allocation, so the report is actionable.
  EXPECT_NE(r.diagnostics[0].message.find("hot_kernel"), std::string::npos);
  EXPECT_NE(r.diagnostics[0].message.find("stage_two"), std::string::npos);
}

TEST(SaLint, SizedConstructionInSteadyState) {
  // A nested mini-repo, so the bad_alloc case above keeps its one finding.
  const LintResult r = lint_fixture("bad_alloc/sized_construction");
  // `std::vector<double> junk(n);` one call below the region, a brace-
  // initialised string and a nested-template map in the region itself.
  EXPECT_TRUE(has(r, "src/la/sized.cpp", 11, "alloc")) << dump(r);
  EXPECT_TRUE(has(r, "src/la/sized.cpp", 21, "alloc")) << dump(r);
  EXPECT_TRUE(has(r, "src/la/sized.cpp", 22, "alloc")) << dump(r);
  // Default construction and empty braces allocate nothing.
  EXPECT_EQ(r.diagnostics.size(), 3u) << dump(r);
}

TEST(SaLint, CollectiveOutsideRoundPlane) {
  const LintResult r = lint_fixture("bad_collective");
  EXPECT_TRUE(has(r, "src/core/engine_x.cpp", 13, "collective")) << dump(r);
  EXPECT_EQ(r.diagnostics.size(), 1u) << dump(r);
}

TEST(SaLint, DeterminismHazardsInKernelTu) {
  const LintResult r = lint_fixture("bad_determinism");
  // Iterating an unordered container feeds a float sum in unspecified
  // order; mt19937 is not the project's SplitMix64.
  EXPECT_TRUE(has(r, "src/la/sum.cpp", 12, "determinism")) << dump(r);
  EXPECT_TRUE(has(r, "src/la/sum.cpp", 17, "determinism")) << dump(r);
}

TEST(SaLint, WalkerSeesThroughIntrinsicHeavyCode) {
  const LintResult r = lint_fixture("bad_simd");
  // The hazards sit BELOW an AVX2 gather loop: __m256d locals, _mm256_*
  // calls, reinterpret_casts.  Finding them proves the tokenizer and
  // function extractor survive intrinsic-heavy kernels (src/la/simd/)
  // instead of silently skipping the body — and that plain intrinsics
  // do not themselves trip [determinism].
  EXPECT_TRUE(has(r, "src/la/gather.cpp", 29, "determinism")) << dump(r);
  EXPECT_TRUE(has(r, "src/la/gather.cpp", 31, "determinism")) << dump(r);
  EXPECT_EQ(r.diagnostics.size(), 2u) << dump(r);
}

TEST(SaLint, LayeringInversionAndCycle) {
  const LintResult r = lint_fixture("bad_layering");
  // la reaching up into dist inverts the layer order.
  EXPECT_TRUE(has(r, "src/la/uses_dist.cpp", 2, "layering")) << dump(r);
  // a.hpp <-> b.hpp is a cycle even though both sit in the same layer.
  EXPECT_TRUE(has(r, "src/common/b.hpp", 3, "layering")) << dump(r);
  EXPECT_EQ(r.diagnostics.size(), 2u) << dump(r);
}

TEST(SaLint, BareWaiverSurfacesAsSuppressionDiagnostic) {
  const LintResult r = lint_fixture("bad_suppression");
  // The waiver silences the alloc finding it covers...
  EXPECT_FALSE(has(r, "src/la/waived.cpp", 10, "alloc")) << dump(r);
  // ...but is itself reported: every exception must say why it is sound.
  EXPECT_TRUE(has(r, "src/la/waived.cpp", 9, "suppression")) << dump(r);
  EXPECT_EQ(r.diagnostics.size(), 1u) << dump(r);
}

TEST(SaLint, CleanFixtureHasNoDiagnostics) {
  const LintResult r = lint_fixture("clean");
  EXPECT_EQ(r.diagnostics.size(), 0u) << dump(r);
  EXPECT_EQ(r.files_scanned, 2u);
}

TEST(SaLint, RepoSrcIsDiagnosticFree) {
  // The same gate CI runs: the real src/ tree, with its annotations and
  // justified waivers, must lint clean.
  const LintResult r = sa_lint::run_lint(SA_LINT_REPO_ROOT);
  EXPECT_EQ(r.diagnostics.size(), 0u) << dump(r);
  EXPECT_GT(r.files_scanned, 50u);
}

}  // namespace
