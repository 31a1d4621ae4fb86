// Dispatch-plane contracts (see src/la/simd/simd.hpp):
//
//   1. Scalar pin — the scalar table reproduces the pre-dispatch kernels
//      bit-for-bit.  The references here are in-TU copies of the legacy
//      loops (this TU is compiled with the same pinned baseline flags as
//      kernels_scalar.cpp, see CMakeLists), so any accidental
//      accumulation-order change in the scalar table fails exactly.
//   2. Per-ISA determinism — at every available ISA level, two
//      back-to-back kernel calls and two back-to-back full solves are
//      bitwise identical.
//   3. Cross-ISA parity — SIMD tables agree with scalar to 1e-12
//      (mass-relative), and axpy is bit-identical across ALL levels.
//   4. Wide Gram tile — on AVX-512F hosts the avx2 level's gram_tile runs
//      on zmm registers and must be bitwise the ymm gram_tile<VecAvx2>.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/local_data.hpp"
#include "core/registry.hpp"
#include "data/partition.hpp"
#include "data/rng.hpp"
#include "data/synthetic.hpp"
#include "la/batch_view.hpp"
#include "la/csr.hpp"
#include "la/simd/kernels.hpp"
#include "la/simd/simd.hpp"
#include "la/vector_ops.hpp"
#include "la/workspace.hpp"

namespace sa::la {
namespace {

using simd::Isa;

/// Restores the entry ISA on scope exit so test order never leaks.
class IsaGuard {
 public:
  IsaGuard() : saved_(simd::active_isa()) {}
  ~IsaGuard() { simd::set_kernel_isa(saved_); }

 private:
  Isa saved_;
};

std::vector<Isa> available_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2})
    if (simd::isa_available(isa)) out.push_back(isa);
  return out;
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  data::SplitMix64 rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.next_normal();
  return v;
}

// ---------------------------------------------------------------------
// In-TU copies of the legacy (pre-dispatch) kernels: the bit-identity
// references for the scalar pin.  Do not modernise these loops.
// ---------------------------------------------------------------------

double ref_dot(const double* x, const double* y, std::size_t n) {
  const std::size_t n4 = n - n % 4;
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  for (std::size_t i = 0; i < n4; i += 4) {
    a0 += x[i] * y[i];
    a1 += x[i + 1] * y[i + 1];
    a2 += x[i + 2] * y[i + 2];
    a3 += x[i + 3] * y[i + 3];
  }
  double acc = (a0 + a1) + (a2 + a3);
  for (std::size_t i = n4; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

void ref_axpy(double alpha, const double* x, double* y, std::size_t n) {
  const std::size_t n4 = n - n % 4;
  for (std::size_t i = 0; i < n4; i += 4) {
    y[i] += alpha * x[i];
    y[i + 1] += alpha * x[i + 1];
    y[i + 2] += alpha * x[i + 2];
    y[i + 3] += alpha * x[i + 3];
  }
  for (std::size_t i = n4; i < n; ++i) y[i] += alpha * x[i];
}

double ref_nrm2sq(const double* x, std::size_t n) {
  const std::size_t n4 = n - n % 4;
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  for (std::size_t i = 0; i < n4; i += 4) {
    a0 += x[i] * x[i];
    a1 += x[i + 1] * x[i + 1];
    a2 += x[i + 2] * x[i + 2];
    a3 += x[i + 3] * x[i + 3];
  }
  double acc = (a0 + a1) + (a2 + a3);
  for (std::size_t i = n4; i < n; ++i) acc += x[i] * x[i];
  return acc;
}

double ref_asum(const double* x, std::size_t n) {
  const std::size_t n4 = n - n % 4;
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  for (std::size_t i = 0; i < n4; i += 4) {
    a0 += std::abs(x[i]);
    a1 += std::abs(x[i + 1]);
    a2 += std::abs(x[i + 2]);
    a3 += std::abs(x[i + 3]);
  }
  double acc = (a0 + a1) + (a2 + a3);
  for (std::size_t i = n4; i < n; ++i) acc += std::abs(x[i]);
  return acc;
}

double ref_sum(const double* x, std::size_t n) {
  const std::size_t n4 = n - n % 4;
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  for (std::size_t i = 0; i < n4; i += 4) {
    a0 += x[i];
    a1 += x[i + 1];
    a2 += x[i + 2];
    a3 += x[i + 3];
  }
  double acc = (a0 + a1) + (a2 + a3);
  for (std::size_t i = n4; i < n; ++i) acc += x[i];
  return acc;
}

double ref_gather_dot(const double* vals, const std::size_t* idx,
                      std::size_t n, const double* x) {
  double acc = 0.0;
  for (std::size_t p = 0; p < n; ++p) acc += vals[p] * x[idx[p]];
  return acc;
}

double ref_gather_dot2(const double* vals, const std::size_t* idx,
                       std::size_t n, const double* x) {
  const std::size_t n2 = n - n % 2;
  double s0 = 0.0, s1 = 0.0;
  for (std::size_t q = 0; q < n2; q += 2) {
    s0 += vals[q] * x[idx[q]];
    s1 += vals[q + 1] * x[idx[q + 1]];
  }
  double s = s0 + s1;
  if (n2 < n) s += vals[n2] * x[idx[n2]];
  return s;
}

// ---------------------------------------------------------------------
// Shared fixtures for the Gram/dots kernel comparisons.
// ---------------------------------------------------------------------

data::Dataset make_dataset(double density, std::uint64_t seed) {
  data::RegressionConfig cfg;
  cfg.num_points = 120;
  cfg.num_features = 64;
  cfg.density = density;
  cfg.support_size = 8;
  cfg.seed = seed;
  return data::make_regression(cfg).dataset;
}

/// Gram + dots over 12 sampled columns, two right-hand sides, through the
/// range kernels over the full range.
std::vector<double> run_kernels(const data::Dataset& d, Workspace& ws) {
  const core::RowBlock block(d, data::Partition::block(d.num_points(), 1),
                             0);
  data::CoordinateSampler sampler(d.num_features(), 4, 7);
  std::vector<std::size_t> cols(12);
  for (std::size_t t = 0; t < 3; ++t)
    sampler.next_into(std::span<std::size_t>(cols).subspan(t * 4, 4));
  const BatchView view = block.view_columns(cols, ws);
  const std::array<std::vector<double>, 2> rhs{
      random_vector(block.local_rows(), 11),
      random_vector(block.local_rows(), 12)};
  const std::array<std::span<const double>, 2> xs{rhs[0], rhs[1]};
  const std::size_t k = view.size();
  const std::size_t tri = k * (k + 1) / 2;
  std::vector<double> buffer(fused_buffer_size(k, xs.size()));
  const std::size_t whole[2] = {0, view.dim()};
  sampled_gram_range(view, whole, std::span<double>(buffer.data(), tri));
  sampled_dots_range(view, xs, whole,
                     std::span<double>(buffer.data() + tri, xs.size() * k));
  return buffer;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ---------------------------------------------------------------------
// Dispatch mechanics.  These run first (file order) so the env-derived
// default is still observable before other tests force ISA levels.
// ---------------------------------------------------------------------

TEST(Dispatch, ActiveRespectsEnvironmentOverride) {
  // CI legs run this whole binary under SA_KERNEL_ISA=<level>; when the
  // variable names an available level, the startup default must honor it.
  const char* env = std::getenv("SA_KERNEL_ISA");
  Isa requested;
  if (env != nullptr && simd::parse_isa(env, requested) &&
      simd::isa_available(requested)) {
    EXPECT_EQ(simd::active_isa(), requested);
  } else {
    EXPECT_EQ(simd::active_isa(), simd::best_isa());
  }
}

TEST(Dispatch, ScalarAlwaysAvailableAndForcible) {
  IsaGuard guard;
  EXPECT_TRUE(simd::isa_available(Isa::kScalar));
  EXPECT_TRUE(simd::set_kernel_isa(Isa::kScalar));
  EXPECT_EQ(simd::active_isa(), Isa::kScalar);
  EXPECT_EQ(simd::active().isa, Isa::kScalar);
}

TEST(Dispatch, NameRoundTrips) {
  for (Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2}) {
    Isa parsed;
    ASSERT_TRUE(simd::parse_isa(simd::to_cstring(isa), parsed));
    EXPECT_EQ(parsed, isa);
  }
  Isa out;
  EXPECT_FALSE(simd::parse_isa("avx512", out));
  EXPECT_FALSE(simd::parse_isa("", out));
  EXPECT_FALSE(simd::parse_isa(nullptr, out));
}

TEST(Dispatch, UnavailableIsaIsRefused) {
  IsaGuard guard;
  const Isa before = simd::active_isa();
  for (Isa isa : {Isa::kSse2, Isa::kAvx2}) {
    if (simd::isa_available(isa)) continue;
    EXPECT_FALSE(simd::set_kernel_isa(isa));
    EXPECT_EQ(simd::active_isa(), before);  // unchanged on refusal
  }
}

TEST(Dispatch, BestIsaIsAvailable) {
  EXPECT_TRUE(simd::isa_available(simd::best_isa()));
  EXPECT_TRUE(simd::isa_available(simd::active_isa()));
}

// ---------------------------------------------------------------------
// Scalar pin: bit-identity against the legacy loops.
// ---------------------------------------------------------------------

TEST(ScalarPin, Blas1BitIdenticalToLegacyLoops) {
  IsaGuard guard;
  ASSERT_TRUE(simd::set_kernel_isa(Isa::kScalar));
  const simd::KernelTable& kt = simd::active();
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{257}, std::size_t{1024}}) {
    const std::vector<double> x = random_vector(n, 100 + n);
    const std::vector<double> y = random_vector(n, 200 + n);
    EXPECT_EQ(kt.dot(x.data(), y.data(), n), ref_dot(x.data(), y.data(), n))
        << "dot n=" << n;
    EXPECT_EQ(kt.nrm2sq(x.data(), n), ref_nrm2sq(x.data(), n))
        << "nrm2sq n=" << n;
    EXPECT_EQ(kt.asum(x.data(), n), ref_asum(x.data(), n)) << "asum n=" << n;
    EXPECT_EQ(kt.sum(x.data(), n), ref_sum(x.data(), n)) << "sum n=" << n;

    std::vector<double> got = y, want = y;
    kt.axpy(0.37, x.data(), got.data(), n);
    ref_axpy(0.37, x.data(), want.data(), n);
    EXPECT_TRUE(bitwise_equal(got, want)) << "axpy n=" << n;

    // Gathers: strided index pattern into a wider base vector.
    const std::vector<double> base = random_vector(4 * n + 8, 300 + n);
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = (3 * i + 1) % base.size();
    EXPECT_EQ(kt.gather_dot(x.data(), idx.data(), n, base.data()),
              ref_gather_dot(x.data(), idx.data(), n, base.data()))
        << "gather_dot n=" << n;
    EXPECT_EQ(kt.gather_dot2(x.data(), idx.data(), n, base.data()),
              ref_gather_dot2(x.data(), idx.data(), n, base.data()))
        << "gather_dot2 n=" << n;
  }
}

TEST(ScalarPin, PublicOpsRouteThroughScalarTable) {
  IsaGuard guard;
  ASSERT_TRUE(simd::set_kernel_isa(Isa::kScalar));
  const std::vector<double> x = random_vector(257, 1);
  const std::vector<double> y = random_vector(257, 2);
  EXPECT_EQ(dot(x, y), ref_dot(x.data(), y.data(), x.size()));
  EXPECT_EQ(nrm2_squared(x), ref_nrm2sq(x.data(), x.size()));
  EXPECT_EQ(asum(x), ref_asum(x.data(), x.size()));
  EXPECT_EQ(sum(x), ref_sum(x.data(), x.size()));
}

TEST(ScalarPin, SpmvBitIdenticalToLegacyRowKernel) {
  IsaGuard guard;
  ASSERT_TRUE(simd::set_kernel_isa(Isa::kScalar));
  const data::Dataset d = make_dataset(0.07, 17);
  const CsrMatrix& a = d.a;
  const std::vector<double> x = random_vector(a.cols(), 3);
  std::vector<double> y(a.rows());
  a.spmv(x, y);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const std::span<const double> vals = a.row_values(i);
    const std::span<const std::size_t> idx = a.row_indices(i);
    EXPECT_EQ(y[i], ref_gather_dot2(vals.data(), idx.data(), idx.size(),
                                    x.data()))
        << "row " << i;
  }
}

// ---------------------------------------------------------------------
// Per-ISA structural contracts.
// ---------------------------------------------------------------------

TEST(PerIsa, BackToBackRunsBitwiseIdentical) {
  IsaGuard guard;
  for (const Isa isa : available_isas()) {
    ASSERT_TRUE(simd::set_kernel_isa(isa));
    for (const double density : {0.05, 0.5}) {
      const data::Dataset d = make_dataset(density, 41);
      Workspace ws1, ws2;
      EXPECT_TRUE(bitwise_equal(run_kernels(d, ws1), run_kernels(d, ws2)))
          << "isa " << simd::to_cstring(isa) << " density " << density;
    }
  }
}

TEST(PerIsa, BackToBackSolvesBitwiseIdentical) {
  IsaGuard guard;
  const data::Dataset reg = make_dataset(0.1, 51);
  data::ClassificationConfig ccfg;
  ccfg.num_points = 80;
  ccfg.num_features = 48;
  ccfg.density = 0.2;
  ccfg.seed = 52;
  const data::Dataset cls = data::make_classification(ccfg);

  for (const Isa isa : available_isas()) {
    ASSERT_TRUE(simd::set_kernel_isa(isa));

    core::SolverSpec lasso = core::SolverSpec::make("sa-lasso");
    lasso.s = 4;
    lasso.max_iterations = 200;
    lasso.trace_every = 0;
    const core::SolveResult l1 = core::solve(reg, lasso);
    const core::SolveResult l2 = core::solve(reg, lasso);
    EXPECT_TRUE(bitwise_equal(l1.x, l2.x))
        << "sa-lasso isa " << simd::to_cstring(isa);

    core::SolverSpec svm = core::SolverSpec::make("sa-svm");
    svm.s = 4;
    svm.max_iterations = 150;
    svm.trace_every = 0;
    const core::SolveResult s1 = core::solve(cls, svm);
    const core::SolveResult s2 = core::solve(cls, svm);
    EXPECT_TRUE(bitwise_equal(s1.x, s2.x))
        << "sa-svm isa " << simd::to_cstring(isa);
  }
}

// ---------------------------------------------------------------------
// Cross-ISA parity: different lane counts associate reductions
// differently, so agreement is to rounding, not bitwise — except axpy.
// ---------------------------------------------------------------------

/// |got - want| ≤ 1e-12 · mass, where mass bounds the absolute sum of
/// the contraction's terms (the natural scale of its rounding error).
void expect_mass_relative(double got, double want, double mass,
                          const char* what, Isa isa) {
  EXPECT_LE(std::abs(got - want), 1e-12 * (mass + 1.0))
      << what << " isa " << simd::to_cstring(isa) << " got " << got
      << " want " << want;
}

// The zero contract the sparse Gram's support intersection rests on
// (la/batch_view.cpp): a partial whose gathers read only ±0.0 is skipped
// and left at +0.0, which is exact only because every table's gather
// dots return the +0.0 bit pattern then — whatever the stored values'
// signs, stored zeros included, and at every length through both SIMD
// tails (the widest table has 4 lanes and 2 accumulators).
TEST(ZeroContract, GatherDotsOverZeroGathersArePositiveZero) {
  IsaGuard guard;
  constexpr std::size_t kWidest = 4;
  constexpr std::size_t kSlots = 16;
  std::vector<double> x(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) x[i] = i % 3 == 0 ? -0.0 : 0.0;
  data::SplitMix64 rng(91);
  for (const Isa isa : available_isas()) {
    ASSERT_TRUE(simd::set_kernel_isa(isa));
    const simd::KernelTable& kt = simd::active();
    for (std::size_t n = 0; n <= 2 * kWidest + 3; ++n) {
      std::vector<std::size_t> idx(n);
      for (std::size_t& q : idx) q = rng.next_below(kSlots);
      // All negative, all -0.0, all stored +0.0, then a sign/magnitude mix.
      std::vector<std::vector<double>> patterns(4, std::vector<double>(n));
      for (std::size_t q = 0; q < n; ++q) {
        patterns[0][q] = -std::ldexp(1.0 + rng.next_double(),
                                     static_cast<int>(rng.next_below(40)) - 20);
        patterns[1][q] = -0.0;
        patterns[2][q] = 0.0;
        const double pick[4] = {-3.5, -0.0, 0.0, 1e300};
        patterns[3][q] = pick[rng.next_below(4)];
      }
      for (const std::vector<double>& vals : patterns) {
        for (const auto gather : {kt.gather_dot, kt.gather_dot2}) {
          const double got = gather(vals.data(), idx.data(), n, x.data());
          const double zero = 0.0;
          EXPECT_EQ(std::memcmp(&got, &zero, sizeof(double)), 0)
              << simd::to_cstring(isa) << " n=" << n << " got " << got;
        }
      }
    }
  }
}

TEST(CrossIsa, KernelParityWithin1e12OfScalar) {
  IsaGuard guard;
  const std::size_t n = 1003;
  const std::vector<double> x = random_vector(n, 61);
  const std::vector<double> y = random_vector(n, 62);
  double mass_dot = 0.0, mass_sq = 0.0, mass_abs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mass_dot += std::abs(x[i] * y[i]);
    mass_sq += x[i] * x[i];
    mass_abs += std::abs(x[i]);
  }

  ASSERT_TRUE(simd::set_kernel_isa(Isa::kScalar));
  const simd::KernelTable& sc = simd::active();
  const double want_dot = sc.dot(x.data(), y.data(), n);
  const double want_sq = sc.nrm2sq(x.data(), n);
  const double want_abs = sc.asum(x.data(), n);
  const double want_sum = sc.sum(x.data(), n);

  for (const Isa isa : available_isas()) {
    if (isa == Isa::kScalar) continue;
    ASSERT_TRUE(simd::set_kernel_isa(isa));
    const simd::KernelTable& kt = simd::active();
    expect_mass_relative(kt.dot(x.data(), y.data(), n), want_dot, mass_dot,
                         "dot", isa);
    expect_mass_relative(kt.nrm2sq(x.data(), n), want_sq, mass_sq, "nrm2sq",
                         isa);
    expect_mass_relative(kt.asum(x.data(), n), want_abs, mass_abs, "asum",
                         isa);
    expect_mass_relative(kt.sum(x.data(), n), want_sum, mass_abs, "sum",
                         isa);
  }
}

TEST(CrossIsa, GramAndDotsParityWithin1e12OfScalar) {
  IsaGuard guard;
  for (const double density : {0.05, 0.5}) {
    const data::Dataset d = make_dataset(density, 71);
    ASSERT_TRUE(simd::set_kernel_isa(Isa::kScalar));
    Workspace ws_scalar;
    const std::vector<double> want = run_kernels(d, ws_scalar);
    // The entries are contractions over ≤120 products of O(1) normals;
    // their mass is bounded by a small constant times the entry scale.
    double mass = 0.0;
    for (const double v : want) mass = std::max(mass, std::abs(v));
    mass = 64.0 * (mass + 1.0);

    for (const Isa isa : available_isas()) {
      if (isa == Isa::kScalar) continue;
      ASSERT_TRUE(simd::set_kernel_isa(isa));
      Workspace ws;
      const std::vector<double> got = run_kernels(d, ws);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_LE(std::abs(got[i] - want[i]), 1e-12 * mass)
            << "entry " << i << " isa " << simd::to_cstring(isa)
            << " density " << density;
    }
  }
}

TEST(CrossIsa, SpmvParityWithin1e12OfScalar) {
  IsaGuard guard;
  const data::Dataset d = make_dataset(0.1, 81);
  const CsrMatrix& a = d.a;
  const std::vector<double> x = random_vector(a.cols(), 82);
  ASSERT_TRUE(simd::set_kernel_isa(Isa::kScalar));
  std::vector<double> want(a.rows());
  a.spmv(x, want);
  double mass = 0.0;
  for (const double v : want) mass = std::max(mass, std::abs(v));
  mass = 64.0 * (mass + 1.0);

  for (const Isa isa : available_isas()) {
    if (isa == Isa::kScalar) continue;
    ASSERT_TRUE(simd::set_kernel_isa(isa));
    std::vector<double> got(a.rows());
    a.spmv(x, got);
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_LE(std::abs(got[i] - want[i]), 1e-12 * mass)
          << "row " << i << " isa " << simd::to_cstring(isa);
  }
}

TEST(CrossIsa, AxpyBitIdenticalAcrossAllIsas) {
  IsaGuard guard;
  // axpy is elementwise and never fuses its multiply-add, so every ISA
  // level produces the same two-rounding result per element.
  for (const std::size_t n : {std::size_t{5}, std::size_t{64},
                              std::size_t{1003}}) {
    const std::vector<double> x = random_vector(n, 91);
    const std::vector<double> y0 = random_vector(n, 92);
    std::vector<double> want = y0;
    ref_axpy(-1.73, x.data(), want.data(), n);
    for (const Isa isa : available_isas()) {
      ASSERT_TRUE(simd::set_kernel_isa(isa));
      std::vector<double> got = y0;
      simd::active().axpy(-1.73, x.data(), got.data(), n);
      EXPECT_TRUE(bitwise_equal(got, want))
          << "n " << n << " isa " << simd::to_cstring(isa);
    }
  }
}

// ---------------------------------------------------------------------
// Wide Gram tile: the avx2 table's 512-bit gram_tile (kernels_avx512.cpp)
// against the ymm gram_tile<VecAvx2> it replaces, bit for bit.
// ---------------------------------------------------------------------

using GramTileFn = decltype(simd::KernelTable::gram_tile);

bool wide_gram_tile_usable() {
#if SA_SIMD_X86 && defined(__GNUC__)
  return simd::isa_available(Isa::kAvx2) &&
         simd::avx2_zmm_table() != nullptr &&
         __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

/// k random rows of length dim, and their pointers.
struct Rows {
  Rows(std::size_t k, std::size_t dim, std::uint64_t seed)
      : data(random_vector(k * dim, seed)), ptrs(k) {
    for (std::size_t i = 0; i < k; ++i) ptrs[i] = data.data() + i * dim;
  }
  std::vector<double> data;
  std::vector<const double*> ptrs;
};

/// One tile [ib, ie) × [jb, je) of the packed Gram through `tile`, into a
/// triangle pre-filled with `seed`'s values (the tile accumulates).
std::vector<double> run_tile(GramTileFn tile, const Rows& rows,
                             std::size_t dim, std::size_t k, std::size_t ib,
                             std::size_t ie, std::size_t jb, std::size_t je) {
  std::vector<double> g = random_vector(k * (k + 1) / 2, 7);
  tile(rows.ptrs.data(), dim, k, g.data(), ib, ie, jb, je);
  return g;
}

TEST(WideGramTile, BitwiseEqualsAvx2GramTile) {
  if (!wide_gram_tile_usable())
    GTEST_SKIP() << "AVX-512F is not usable on this CPU/OS, or the "
                    "toolchain could not build the 512-bit gram_tile";
  const GramTileFn ymm = simd::avx2_table()->gram_tile;
  const GramTileFn zmm = simd::avx2_zmm_table()->gram_tile;
  ASSERT_NE(ymm, zmm);
  {
    // Dispatch hands out the 512-bit tile under the avx2 level, whose
    // name and number do not change.
    IsaGuard guard;
    ASSERT_TRUE(simd::set_kernel_isa(Isa::kAvx2));
    EXPECT_EQ(simd::active_isa(), Isa::kAvx2);
    EXPECT_EQ(simd::active().gram_tile, zmm);
  }

  // Depths with d % 4 != 0, and above the 512-double depth slice.
  const std::size_t dims[] = {1, 3, 4, 7, 13, 64, 78, 313, 512, 515, 1029,
                              1600};
  std::vector<std::size_t> ks;
  for (std::size_t k = 1; k <= 13; ++k) ks.push_back(k);
  for (const std::size_t k : {31, 32, 33, 61, 64, 67}) ks.push_back(k);
  for (const std::size_t k : ks) {
    for (const std::size_t dim : dims) {
      const Rows rows(k, dim, 1000 * k + dim);
      // The whole triangle, the 32×32 tiles dense_gram walks (diagonal
      // and off-diagonal), and tiles whose edges straddle the diagonal
      // off the 8-grid.
      std::vector<std::array<std::size_t, 4>> tiles = {{0, k, 0, k}};
      for (std::size_t ib = 0; ib < k; ib += 32)
        for (std::size_t jb = ib; jb < k; jb += 32)
          tiles.push_back(
              {ib, std::min(ib + 32, k), jb, std::min(jb + 32, k)});
      if (k > 5) tiles.push_back({3, k, 1, k});
      if (k > 9) tiles.push_back({2, k - 1, 6, k});
      for (const auto& t : tiles) {
        const std::vector<double> want =
            run_tile(ymm, rows, dim, k, t[0], t[1], t[2], t[3]);
        const std::vector<double> got =
            run_tile(zmm, rows, dim, k, t[0], t[1], t[2], t[3]);
        EXPECT_TRUE(bitwise_equal(got, want))
            << "k " << k << " dim " << dim << " tile [" << t[0] << ", "
            << t[1] << ") x [" << t[2] << ", " << t[3] << ")";
      }
    }
  }

  // A full 64-chunk sampled_gram_range on the active (512-bit) avx2
  // table, against the ymm tile walked chunk by chunk as dense_gram
  // walks it.
  IsaGuard guard;
  ASSERT_TRUE(simd::set_kernel_isa(Isa::kAvx2));
  const std::size_t m = 20000;
  const std::size_t chunks = 64;
  for (const std::size_t k : {37, 61, 64}) {
    const Rows rows(k, m, 500 + k);
    const BatchView view = BatchView::dense(rows.ptrs, m);
    std::vector<std::size_t> bounds(chunks + 1);
    for (std::size_t c = 0; c <= chunks; ++c) bounds[c] = c * m / chunks;
    const std::size_t tri = k * (k + 1) / 2;
    std::vector<double> got(chunks * tri);
    sampled_gram_range(view, bounds, got);
    std::vector<double> want(chunks * tri, 0.0);
    std::vector<const double*> chunk_rows(k);
    for (std::size_t c = 0; c < chunks; ++c) {
      for (std::size_t i = 0; i < k; ++i)
        chunk_rows[i] = rows.ptrs[i] + bounds[c];
      for (std::size_t ib = 0; ib < k; ib += 32)
        for (std::size_t jb = ib; jb < k; jb += 32)
          ymm(chunk_rows.data(), bounds[c + 1] - bounds[c], k,
              want.data() + c * tri, ib, std::min(ib + 32, k), jb,
              std::min(jb + 32, k));
    }
    EXPECT_TRUE(bitwise_equal(got, want)) << "k " << k;
  }
}

}  // namespace
}  // namespace sa::la
