// Runtime-dispatched SIMD kernel plane: the portable vector abstraction
// and the KernelTable every hot-path call site routes through.
//
// Why explicit SIMD at all: per-round wall time of the s-step solvers is
// dominated by the Gram and dot kernels (sampled_gram_range,
// sampled_dots_range) plus the BLAS-1 layer under them, and
// `#pragma omp simd` autovectorizes the dense 4x4 micro-kernel poorly and
// the sparse gather accumulator not at all.  The
// plane compiles each ISA level into its own translation unit with
// *pinned* ISA flags (see CMakeLists) and selects one table at runtime:
//
//   * scalar — the pre-existing kernels, verbatim, compiled at the
//     portable x86-64 baseline.  Selecting it reproduces pre-dispatch
//     results bit-for-bit (pinned by tests/la/test_simd_dispatch.cpp),
//     so every bitwise conformance suite holds at this level unchanged.
//   * sse2   — 128-bit (2-lane) kernels built on the wrappers below.
//   * avx2   — 256-bit (4-lane) FMA kernels, hardware-gated via CPUID.
//     On AVX-512F hosts its gram_tile runs on 512-bit registers, two
//     4-lane accumulators per register, with the same bits (see
//     kernels_avx512.cpp); the level and its name stay avx2.
//
// Determinism contract: every table entry uses a fixed, compile-time
// accumulation order — vector lanes are combined pairwise left-to-right
// ((l0+l1)+(l2+l3)) and scalar tails run last — so results are run-to-run
// and rank-count deterministic *within* a fixed ISA level.  Different ISA
// levels associate reductions differently and agree only to rounding
// (~1e-12 relative; asserted by the cross-ISA parity tests).  One entry
// is stricter: axpy is elementwise (no reduction) and deliberately never
// fuses its multiply-add, so axpy output is bit-identical across ALL ISA
// levels.
//
// Selection: the first call to active() picks the best hardware-supported
// table (CPUID), overridable by the SA_KERNEL_ISA environment variable
// ({scalar, sse2, avx2}) or programmatically via set_kernel_isa() (the
// `--kernel-isa` CLI flag).  The active ISA is reported in the sa_opt_cli
// phase summary and stamped into CommStats::kernel_isa at finish().
#pragma once

#include <cstddef>

#if defined(__x86_64__) || defined(_M_X64)
#define SA_SIMD_X86 1
#include <immintrin.h>
#else
#define SA_SIMD_X86 0
#endif

namespace sa::la::simd {

/// ISA levels in strictly increasing capability order.  The numeric
/// values are stable (CommStats::kernel_isa records them).
enum class Isa : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Stable lowercase name ("scalar" / "sse2" / "avx2").  Never allocates.
const char* to_cstring(Isa isa);

/// Parses a lowercase ISA name into `out`; false on an unknown name.
/// Allocation-free (plain strcmp) so the dispatch path stays
/// steady-state clean.
bool parse_isa(const char* name, Isa& out);

// ---------------------------------------------------------------------
// Portable vector wrappers.  Compile-time width, one wrapper per ISA,
// method names deliberately distinctive (`v`-prefixed) so sa_lint's
// name-resolved call graph never confuses them with repo functions.
// vmadd is the only op whose *rounding* differs per ISA (true FMA on
// AVX2, mul+add elsewhere) — reduction kernels may use it, elementwise
// kernels (axpy) must not.
// ---------------------------------------------------------------------

#if SA_SIMD_X86

/// 128-bit SSE2 lane pair (baseline on every x86-64 CPU).
struct VecSse2 {
  using Reg = __m128d;
  static constexpr std::size_t kWidth = 2;
  static Reg vzero() { return _mm_setzero_pd(); }
  static Reg vset1(double v) { return _mm_set1_pd(v); }
  static Reg vload(const double* p) { return _mm_loadu_pd(p); }
  static void vstore(double* p, Reg r) { _mm_storeu_pd(p, r); }
  static Reg vadd(Reg a, Reg b) { return _mm_add_pd(a, b); }
  static Reg vmul(Reg a, Reg b) { return _mm_mul_pd(a, b); }
  /// a*b + c — SSE2 has no FMA: two roundings, same as scalar mul+add.
  static Reg vmadd(Reg a, Reg b, Reg c) {
    return _mm_add_pd(_mm_mul_pd(a, b), c);
  }
  static Reg vabs(Reg a) {
    return _mm_andnot_pd(_mm_set1_pd(-0.0), a);
  }
  /// Gather two doubles through 64-bit indices (scalar loads: SSE2 has
  /// no gather instruction; the win is the vector FMA chain above it).
  static Reg vgather(const double* base, const std::size_t* idx) {
    return _mm_set_pd(base[idx[1]], base[idx[0]]);
  }
  /// Fixed-order horizontal sum: lane0 + lane1.
  static double vhsum(Reg a) {
    return _mm_cvtsd_f64(a) +
           _mm_cvtsd_f64(_mm_unpackhi_pd(a, a));
  }
};

#if defined(__AVX2__) && defined(__FMA__)

/// 256-bit AVX2 quad lane with true FMA.  Only defined in TUs compiled
/// with -mavx2 -mfma (kernels_avx2.cpp, kernels_avx512.cpp); callers gate
/// on CPUID.  `Tag` only names distinct types: the AVX-512 TU instantiates
/// this same wrapper with a TU-local tag, so none of its EVEX-encoded
/// copies can be merged with the AVX2 TU's (see kernels_impl.hpp).
template <class Tag>
struct VecAvx2Of {
  using Reg = __m256d;
  static constexpr std::size_t kWidth = 4;
  static Reg vzero() { return _mm256_setzero_pd(); }
  static Reg vset1(double v) { return _mm256_set1_pd(v); }
  static Reg vload(const double* p) { return _mm256_loadu_pd(p); }
  static void vstore(double* p, Reg r) { _mm256_storeu_pd(p, r); }
  static Reg vadd(Reg a, Reg b) { return _mm256_add_pd(a, b); }
  static Reg vmul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
  /// a*b + c in one rounding (vfmadd).
  static Reg vmadd(Reg a, Reg b, Reg c) {
    return _mm256_fmadd_pd(a, b, c);
  }
  static Reg vabs(Reg a) {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
  }
  /// Hardware gather of four doubles through 64-bit indices.
  static Reg vgather(const double* base, const std::size_t* idx) {
    const __m256i vi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(idx));
    return _mm256_i64gather_pd(base, vi, 8);
  }
  /// Fixed-order horizontal sum: (l0 + l1) + (l2 + l3).
  static double vhsum(Reg a) {
    const __m128d lo = _mm256_castpd256_pd128(a);
    const __m128d hi = _mm256_extractf128_pd(a, 1);
    const double l01 = _mm_cvtsd_f64(lo) +
                       _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
    const double l23 = _mm_cvtsd_f64(hi) +
                       _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
    return l01 + l23;
  }
};

using VecAvx2 = VecAvx2Of<void>;

#endif  // __AVX2__ && __FMA__
#endif  // SA_SIMD_X86

// ---------------------------------------------------------------------
// The kernel table.  One function pointer per hot-path primitive; every
// call site in la/ routes through the active table, so the fused and
// split Gram paths execute literally the same machine code within any
// fixed ISA level (the structural bit-identity the parity suites pin).
// ---------------------------------------------------------------------

struct KernelTable {
  Isa isa;

  /// Σ x[i]·y[i], 4 lane-strided accumulators, fixed combine order.
  double (*dot)(const double* x, const double* y, std::size_t n);
  /// y[i] += alpha·x[i] — elementwise, never fused: bit-identical
  /// across every ISA level, not just within one.
  void (*axpy)(double alpha, const double* x, double* y, std::size_t n);
  /// Σ x[i]², same shape as dot.
  double (*nrm2sq)(const double* x, std::size_t n);
  /// Σ |x[i]|.
  double (*asum)(const double* x, std::size_t n);
  /// Σ x[i].
  double (*sum)(const double* x, std::size_t n);

  /// Σ vals[q]·x[idx[q]] — the sparse gather dot in the *sequential*
  /// legacy order.  The sparse dot sections run it per chunk segment
  /// through gather_dot_segments, whose per-ISA oracle it is.
  double (*gather_dot)(const double* vals, const std::size_t* idx,
                       std::size_t n, const double* x);
  /// Same contraction in the *two-accumulator* legacy order (sparse
  /// Gram partner dots, CSR spmv rows).  SIMD levels may alias this to
  /// gather_dot — the split orders only exist at the scalar level,
  /// where they pin two distinct pre-dispatch bit patterns.
  double (*gather_dot2)(const double* vals, const std::size_t* idx,
                        std::size_t n, const double* x);
  /// gather_dot over `segments` consecutive runs of one sparse member —
  /// its chunk segments: run t is [cuts[t], cuts[t + 1]) of (vals, idx)
  /// (cuts holds segments + 1 ascending offsets), and out[t] is bitwise
  /// gather_dot(vals + cuts[t], idx + cuts[t], cuts[t + 1] − cuts[t], x).
  /// Every ISA reproduces its own single-run order (pinned by
  /// SegmentedGather.* in tests/la/test_simd_dispatch.cpp), so a member
  /// costs one call however many chunks its nonzeros span.
  void (*gather_dot_segments)(const double* vals, const std::size_t* idx,
                              const std::size_t* cuts, std::size_t segments,
                              const double* x, double* out);
  /// The same over gather_dot2 (aliased wherever gather_dot2 is).
  void (*gather_dot2_segments)(const double* vals, const std::size_t* idx,
                               const std::size_t* cuts,
                               std::size_t segments, const double* x,
                               double* out);

  /// Accumulates the upper-triangular entries of the k×k Gram within
  /// the tile [ib,ie)×[jb,je) into the packed row-major triangle `g`
  /// (zeroed by the caller), sliced into L1-resident depth chunks.
  /// Each packed entry belongs to exactly one tile, so tile calls are
  /// race-free under OpenMP and the per-entry order is fixed.
  void (*gram_tile)(const double* const* rows, std::size_t dim,
                    std::size_t k, double* g, std::size_t ib,
                    std::size_t ie, std::size_t jb, std::size_t je);
};

// ---------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------

/// The active table.  First call detects the best hardware-supported
/// ISA (honoring SA_KERNEL_ISA); later calls are a single atomic load.
/// Thread-safe and allocation-free (steady-state call sites depend on
/// both).
const KernelTable& active();

/// Convenience: active().isa.
Isa active_isa();

/// True when `isa` can run on this build + machine (scalar: always;
/// sse2: any x86-64 build; avx2: x86-64 build + CPUID avx2&fma).
bool isa_available(Isa isa);

/// Highest available ISA on this build + machine.
Isa best_isa();

/// Forces the active table.  Returns false (and changes nothing) when
/// the ISA is unavailable.  Takes effect for all subsequent kernel
/// calls process-wide; used by --kernel-isa, tests, and benches.
bool set_kernel_isa(Isa isa);

}  // namespace sa::la::simd
