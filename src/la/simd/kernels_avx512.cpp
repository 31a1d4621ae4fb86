// The AVX2 kernel table with its gram_tile on 512-bit registers.
//
// Why: the ymm micro_gram_4x4 needs sixteen accumulators plus a row
// register, one more than the sixteen ymm registers, so the compiler
// keeps an accumulator on the stack and every depth step pays a
// store → reload → FMA chain.  AVX-512F has 32 zmm registers.  Here each
// zmm register holds two AVX2 accumulators side by side: lanes 0–3 are
// entry (a, b) and lanes 4–7 entry (a, b + 1).  Row ri[a]'s 4-double step
// is broadcast to both halves and two rj rows are paired into one
// register, so a 4×8 block keeps its sixteen accumulators in registers.
//
// Same bits: every lane runs the FMA the AVX2 lane runs, on the same
// operands in the same order; each 256-bit half then goes through
// VecAvx2's (l0 + l1) + (l2 + l3) and the same scalar depth tail.  The
// walker, and therefore the full-block / edge classification, is the
// shared gram_tile; ragged edges keep dot's AVX2 four-accumulator order.
// The table keeps Isa::kAvx2, because its results are the AVX2 table's
// bit for bit (pinned by WideGramTile.BitwiseEqualsAvx2GramTile).
//
// Built with -mavx2 -mfma -mavx512f (see CMakeLists); the dispatcher
// hands this table out only when the CPU and the OS support AVX-512F.
// Every template here is instantiated with a TU-local type, so no
// specialization the AVX2 TU also emits is compiled here (kernels_impl.hpp).
#include <cstddef>

#include "la/simd/kernels.hpp"

#if SA_SIMD_X86 && defined(__AVX512F__) && defined(__AVX2__) && \
    defined(__FMA__)

#include "la/simd/kernels_impl.hpp"

namespace sa::la::simd {
namespace {

struct ZmmTag;
using VecYmm = VecAvx2Of<ZmmTag>;

// gcc 12's unmasked insert / broadcast / extract intrinsics pass
// _mm512_undefined_pd() as the merge source and then trip
// -Wmaybe-uninitialized; the all-lanes masked forms are the same builtin
// with an explicit source, so they emit the same instruction, warning-free.
constexpr __mmask8 kAll = 0xff;

/// A 4-double row step in both halves of a zmm register.
__m512d vbroadcast4(const double* p) {
  return _mm512_mask_broadcast_f64x4(_mm512_setzero_pd(), kAll,
                                     _mm256_loadu_pd(p));
}

/// Row steps `lo` and `hi` side by side: lanes 0–3 and 4–7.
__m512d vpair(const double* lo, const double* hi) {
  const __m512d v = vbroadcast4(lo);
  return _mm512_mask_insertf64x4(v, kAll, v, _mm256_loadu_pd(hi), 1);
}

/// Lanes 0–3 (half 0) or 4–7 (half 1) of `a`.
template <int kHalf>
__m256d vhalf(__m512d a) {
  return _mm512_mask_extractf64x4_pd(_mm256_setzero_pd(), kAll, a, kHalf);
}

/// 4×(2·kPairs) register block: accumulator [a][q] holds entries
/// (a, 2q) and (a, 2q + 1) of ri × rj in its low and high halves.
/// Kept out of line: inlined into the walker, its twelve row pointers
/// no longer fit the general registers and each depth step reloads
/// them from the stack.
template <std::size_t kPairs>
[[gnu::noinline]] void vgram_zmm(const double* const ri[4],
                                 const double* const rj[], std::size_t d,
                                 double out[4][2 * kPairs]) {
  __m512d acc[4][kPairs];
  for (std::size_t a = 0; a < 4; ++a)
    for (std::size_t q = 0; q < kPairs; ++q) acc[a][q] = _mm512_setzero_pd();
  std::size_t p = 0;
  for (; p + 4 <= d; p += 4) {
    __m512d y[kPairs];
    for (std::size_t q = 0; q < kPairs; ++q)
      y[q] = vpair(rj[2 * q] + p, rj[2 * q + 1] + p);
    for (std::size_t a = 0; a < 4; ++a) {
      const __m512d x = vbroadcast4(ri[a] + p);
      for (std::size_t q = 0; q < kPairs; ++q)
        acc[a][q] = _mm512_fmadd_pd(x, y[q], acc[a][q]);
    }
  }
  for (std::size_t a = 0; a < 4; ++a)
    for (std::size_t q = 0; q < kPairs; ++q) {
      out[a][2 * q] = VecYmm::vhsum(vhalf<0>(acc[a][q]));
      out[a][2 * q + 1] = VecYmm::vhsum(vhalf<1>(acc[a][q]));
    }
  // micro_gram_4x4's depth tail: per entry, products added in order.
  for (; p < d; ++p)
    for (std::size_t a = 0; a < 4; ++a)
      for (std::size_t b = 0; b < 2 * kPairs; ++b)
        out[a][b] += ri[a][p] * rj[b][p];
}

struct ZmmBlock {
  static constexpr bool kPairs = true;
  static void vgram4x4(const double* const ri[4], const double* const rj[4],
                       std::size_t d, double out[4][4]) {
    vgram_zmm<2>(ri, rj, d, out);
  }
  static void vgram4x8(const double* const ri[4], const double* const rj[8],
                       std::size_t d, double out[4][8]) {
    vgram_zmm<4>(ri, rj, d, out);
  }
};

void gram_tile_zmm(const double* const* rows, std::size_t dim, std::size_t k,
                   double* g, std::size_t ib, std::size_t ie, std::size_t jb,
                   std::size_t je) {
  detail::gram_tile<VecYmm, ZmmBlock>(rows, dim, k, g, ib, ie, jb, je);
}

}  // namespace

const KernelTable* avx2_zmm_table() {
  const KernelTable* avx2 = avx2_table();
  if (avx2 == nullptr) return nullptr;
  static const KernelTable table = [avx2] {
    KernelTable t = *avx2;
    t.gram_tile = &gram_tile_zmm;
    return t;
  }();
  return &table;
}

}  // namespace sa::la::simd

#else  // toolchain cannot emit AVX-512F

namespace sa::la::simd {

const KernelTable* avx2_zmm_table() { return nullptr; }

}  // namespace sa::la::simd

#endif
