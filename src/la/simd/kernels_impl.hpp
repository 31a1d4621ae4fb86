// Width-generic kernel bodies shared by the SSE2, AVX2 and AVX-512
// translation units.  Each TU instantiates these templates with its own
// vector wrapper (VecSse2 / VecAvx2 / the AVX-512 TU's VecAvx2Of over a
// tag in an anonymous namespace), and every template here is keyed on
// that wrapper, so no specialization is ever emitted from two TUs with
// different ISA flags (no ODR hazard: the linker could otherwise keep an
// EVEX- or VEX-encoded copy and hand it to a host without that ISA).
// The one non-template helper, packed_index, is scalar integer code.
// gram_tile is also keyed on its full-block kernel (Block4x4 by
// default); the AVX-512 TU passes its own zmm block kernel.
//
// Accumulation-order rules (the per-ISA determinism contract):
//   * reductions run kWidth·4 lanes in flight, combine the four vector
//     accumulators pairwise, then vhsum's fixed lane order, then the
//     scalar tail — a fixed order per ISA, different across ISAs;
//   * axpy is elementwise and uses vmul+vadd (never vmadd): one
//     multiply rounding + one add rounding per element, bit-identical
//     to the scalar kernel on every ISA level.
#pragma once

#include <cstddef>

#include "la/simd/simd.hpp"

namespace sa::la::simd::detail {

/// Packed row-major upper-triangle index, entry (i, j ≥ i) of a k×k
/// matrix — must match la::packed_upper_index (batch_view.hpp).
inline std::size_t packed_index(std::size_t i, std::size_t j,
                                std::size_t k) {
  return i * k - i * (i + 1) / 2 + j;
}

/// Doubles per Gram depth slice; keeps the 8 active row segments of an
/// 8×8 tile L1-resident.  Must match the scalar kernel's chunking so
/// tile boundaries (and therefore edge-dot chunk boundaries) agree.
inline constexpr std::size_t kDepthChunk = 512;

template <class V>
double dot(const double* x, const double* y, std::size_t n) {
  using R = typename V::Reg;
  constexpr std::size_t kW = V::kWidth;
  R a0 = V::vzero(), a1 = V::vzero(), a2 = V::vzero(), a3 = V::vzero();
  std::size_t i = 0;
  for (; i + 4 * kW <= n; i += 4 * kW) {
    a0 = V::vmadd(V::vload(x + i), V::vload(y + i), a0);
    a1 = V::vmadd(V::vload(x + i + kW), V::vload(y + i + kW), a1);
    a2 = V::vmadd(V::vload(x + i + 2 * kW), V::vload(y + i + 2 * kW), a2);
    a3 = V::vmadd(V::vload(x + i + 3 * kW), V::vload(y + i + 3 * kW), a3);
  }
  double acc = V::vhsum(V::vadd(V::vadd(a0, a1), V::vadd(a2, a3)));
  for (; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

template <class V>
void axpy(double alpha, const double* x, double* y, std::size_t n) {
  using R = typename V::Reg;
  constexpr std::size_t kW = V::kWidth;
  const R va = V::vset1(alpha);
  std::size_t i = 0;
  for (; i + 2 * kW <= n; i += 2 * kW) {
    V::vstore(y + i, V::vadd(V::vmul(va, V::vload(x + i)), V::vload(y + i)));
    V::vstore(y + i + kW, V::vadd(V::vmul(va, V::vload(x + i + kW)),
                                  V::vload(y + i + kW)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

template <class V>
double nrm2sq(const double* x, std::size_t n) {
  using R = typename V::Reg;
  constexpr std::size_t kW = V::kWidth;
  R a0 = V::vzero(), a1 = V::vzero(), a2 = V::vzero(), a3 = V::vzero();
  std::size_t i = 0;
  for (; i + 4 * kW <= n; i += 4 * kW) {
    const R x0 = V::vload(x + i), x1 = V::vload(x + i + kW);
    const R x2 = V::vload(x + i + 2 * kW), x3 = V::vload(x + i + 3 * kW);
    a0 = V::vmadd(x0, x0, a0);
    a1 = V::vmadd(x1, x1, a1);
    a2 = V::vmadd(x2, x2, a2);
    a3 = V::vmadd(x3, x3, a3);
  }
  double acc = V::vhsum(V::vadd(V::vadd(a0, a1), V::vadd(a2, a3)));
  for (; i < n; ++i) acc += x[i] * x[i];
  return acc;
}

template <class V>
double asum(const double* x, std::size_t n) {
  using R = typename V::Reg;
  constexpr std::size_t kW = V::kWidth;
  R a0 = V::vzero(), a1 = V::vzero(), a2 = V::vzero(), a3 = V::vzero();
  std::size_t i = 0;
  for (; i + 4 * kW <= n; i += 4 * kW) {
    a0 = V::vadd(V::vabs(V::vload(x + i)), a0);
    a1 = V::vadd(V::vabs(V::vload(x + i + kW)), a1);
    a2 = V::vadd(V::vabs(V::vload(x + i + 2 * kW)), a2);
    a3 = V::vadd(V::vabs(V::vload(x + i + 3 * kW)), a3);
  }
  double acc = V::vhsum(V::vadd(V::vadd(a0, a1), V::vadd(a2, a3)));
  for (; i < n; ++i) acc += x[i] < 0.0 ? -x[i] : x[i];
  return acc;
}

template <class V>
double sum(const double* x, std::size_t n) {
  using R = typename V::Reg;
  constexpr std::size_t kW = V::kWidth;
  R a0 = V::vzero(), a1 = V::vzero(), a2 = V::vzero(), a3 = V::vzero();
  std::size_t i = 0;
  for (; i + 4 * kW <= n; i += 4 * kW) {
    a0 = V::vadd(V::vload(x + i), a0);
    a1 = V::vadd(V::vload(x + i + kW), a1);
    a2 = V::vadd(V::vload(x + i + 2 * kW), a2);
    a3 = V::vadd(V::vload(x + i + 3 * kW), a3);
  }
  double acc = V::vhsum(V::vadd(V::vadd(a0, a1), V::vadd(a2, a3)));
  for (; i < n; ++i) acc += x[i];
  return acc;
}

/// Vectorized sparse gather dot: Σ vals[q]·x[idx[q]] with two vector
/// accumulators over vgather lanes.  Serves both gather_dot orders at
/// SIMD levels (the legacy sequential/two-accumulator split is a
/// scalar-only bit contract).
template <class V>
double gather_dot(const double* vals, const std::size_t* idx,
                  std::size_t n, const double* x) {
  using R = typename V::Reg;
  constexpr std::size_t kW = V::kWidth;
  R a0 = V::vzero(), a1 = V::vzero();
  std::size_t q = 0;
  for (; q + 2 * kW <= n; q += 2 * kW) {
    a0 = V::vmadd(V::vload(vals + q), V::vgather(x, idx + q), a0);
    a1 = V::vmadd(V::vload(vals + q + kW), V::vgather(x, idx + q + kW), a1);
  }
  double acc = V::vhsum(V::vadd(a0, a1));
  for (; q < n; ++q) acc += vals[q] * x[idx[q]];
  return acc;
}

/// The 4×4 register micro-kernel, depth-vectorized: sixteen vector
/// accumulators (the full 16-register ymm/xmm file) each own one of the
/// sixteen dot products between rows ri[0..4) and rj[0..4); every pass
/// over the shared dimension feeds them from eight row loads.  Lane
/// combine order is vhsum's, then the scalar depth tail — fixed per ISA.
template <class V>
void micro_gram_4x4(const double* const ri[4], const double* const rj[4],
                    std::size_t d, double out[4][4]) {
  using R = typename V::Reg;
  constexpr std::size_t kW = V::kWidth;
  R a00 = V::vzero(), a01 = V::vzero(), a02 = V::vzero(), a03 = V::vzero();
  R a10 = V::vzero(), a11 = V::vzero(), a12 = V::vzero(), a13 = V::vzero();
  R a20 = V::vzero(), a21 = V::vzero(), a22 = V::vzero(), a23 = V::vzero();
  R a30 = V::vzero(), a31 = V::vzero(), a32 = V::vzero(), a33 = V::vzero();
  std::size_t p = 0;
  for (; p + kW <= d; p += kW) {
    const R y0 = V::vload(rj[0] + p), y1 = V::vload(rj[1] + p);
    const R y2 = V::vload(rj[2] + p), y3 = V::vload(rj[3] + p);
    const R x0 = V::vload(ri[0] + p);
    a00 = V::vmadd(x0, y0, a00);
    a01 = V::vmadd(x0, y1, a01);
    a02 = V::vmadd(x0, y2, a02);
    a03 = V::vmadd(x0, y3, a03);
    const R x1 = V::vload(ri[1] + p);
    a10 = V::vmadd(x1, y0, a10);
    a11 = V::vmadd(x1, y1, a11);
    a12 = V::vmadd(x1, y2, a12);
    a13 = V::vmadd(x1, y3, a13);
    const R x2 = V::vload(ri[2] + p);
    a20 = V::vmadd(x2, y0, a20);
    a21 = V::vmadd(x2, y1, a21);
    a22 = V::vmadd(x2, y2, a22);
    a23 = V::vmadd(x2, y3, a23);
    const R x3 = V::vload(ri[3] + p);
    a30 = V::vmadd(x3, y0, a30);
    a31 = V::vmadd(x3, y1, a31);
    a32 = V::vmadd(x3, y2, a32);
    a33 = V::vmadd(x3, y3, a33);
  }
  out[0][0] = V::vhsum(a00); out[0][1] = V::vhsum(a01);
  out[0][2] = V::vhsum(a02); out[0][3] = V::vhsum(a03);
  out[1][0] = V::vhsum(a10); out[1][1] = V::vhsum(a11);
  out[1][2] = V::vhsum(a12); out[1][3] = V::vhsum(a13);
  out[2][0] = V::vhsum(a20); out[2][1] = V::vhsum(a21);
  out[2][2] = V::vhsum(a22); out[2][3] = V::vhsum(a23);
  out[3][0] = V::vhsum(a30); out[3][1] = V::vhsum(a31);
  out[3][2] = V::vhsum(a32); out[3][3] = V::vhsum(a33);
  for (; p < d; ++p) {
    const double y0 = rj[0][p], y1 = rj[1][p];
    const double y2 = rj[2][p], y3 = rj[3][p];
    for (std::size_t a = 0; a < 4; ++a) {
      const double xa = ri[a][p];
      out[a][0] += xa * y0;
      out[a][1] += xa * y1;
      out[a][2] += xa * y2;
      out[a][3] += xa * y3;
    }
  }
}

/// The gram_tile walker's default full-block kernel: micro_gram_4x4<V>
/// on one 4×4 block.  A kernel with kPairs = true also has a 4×8 form,
/// vgram4x8, that computes two horizontally adjacent full 4×4 blocks in
/// one pass, each entry in the same order as vgram4x4.
template <class V>
struct Block4x4 {
  static constexpr bool kPairs = false;
  static void vgram4x4(const double* const ri[4], const double* const rj[4],
                       std::size_t d, double out[4][4]) {
    micro_gram_4x4<V>(ri, rj, d, out);
  }
};

/// Adds the upper-triangle entries of a 4×kCols block at (i0, j0) into
/// the packed triangle.  Keyed on V like every kernel here, so each
/// ISA's TU emits its own copy.
template <class V, std::size_t kCols>
void scatter_block(const double block[4][kCols], std::size_t i0,
                   std::size_t j0, std::size_t k, double* g) {
  for (std::size_t a = 0; a < 4; ++a)
    for (std::size_t b = 0; b < kCols; ++b)
      if (j0 + b >= i0 + a) g[packed_index(i0 + a, j0 + b, k)] += block[a][b];
}

/// SIMD Gram tile: the scalar walker widened to an 8×8 FMA tile.  Within
/// each depth chunk the tile range is cut into 8×8 blocks, and each
/// block runs the full-block kernel on its (up to) four 4×4 sub-blocks
/// back to back — the eight ri / eight rj row segments a block touches
/// stay L1-resident across all four passes, halving the row-load traffic
/// of a flat 4×4 walk.  Diagonal-straddling full blocks waste a few
/// lower-triangle FMAs (cheaper than masking); ragged edges fall back to
/// chunked dots in this ISA's own order.  A 4×8 kernel (Block::kPairs)
/// takes the two sub-blocks of a row strip in one pass when both are
/// full; the full / edge / below-diagonal classification of every
/// sub-block is the same either way, so each entry's order is too.
template <class V, class Block = Block4x4<V>>
void gram_tile(const double* const* rows, std::size_t dim, std::size_t k,
               double* g, std::size_t ib, std::size_t ie, std::size_t jb,
               std::size_t je) {
  for (std::size_t pb = 0; pb < dim; pb += kDepthChunk) {
    const std::size_t pc =
        dim - pb < kDepthChunk ? dim - pb : kDepthChunk;
    for (std::size_t i8 = ib; i8 < ie; i8 += 8) {
      const std::size_t i8e = i8 + 8 < ie ? i8 + 8 : ie;
      for (std::size_t j8 = jb; j8 < je; j8 += 8) {
        const std::size_t j8e = j8 + 8 < je ? j8 + 8 : je;
        if (j8e <= i8) continue;  // 8×8 block fully below the diagonal
        for (std::size_t i0 = i8; i0 < i8e; i0 += 4) {
          const std::size_t mi = i8e - i0 < 4 ? i8e - i0 : 4;
          const double* ri[4] = {};
          if (mi == 4)
            for (std::size_t a = 0; a < 4; ++a) ri[a] = rows[i0 + a] + pb;
          if constexpr (Block::kPairs) {
            // Both sub-blocks full, the left one not below the diagonal.
            if (mi == 4 && j8e - j8 == 8 && j8 + 4 > i0) {
              const double* rj[8];
              for (std::size_t b = 0; b < 8; ++b) rj[b] = rows[j8 + b] + pb;
              double block[4][8];
              Block::vgram4x8(ri, rj, pc, block);
              scatter_block<V, 8>(block, i0, j8, k, g);
              continue;
            }
          }
          for (std::size_t j0 = j8; j0 < j8e; j0 += 4) {
            const std::size_t mj = j8e - j0 < 4 ? j8e - j0 : 4;
            if (j0 + mj <= i0) continue;  // below the diagonal
            if (mi == 4 && mj == 4) {
              const double* rj[4] = {rows[j0] + pb, rows[j0 + 1] + pb,
                                     rows[j0 + 2] + pb, rows[j0 + 3] + pb};
              double block[4][4];
              Block::vgram4x4(ri, rj, pc, block);
              scatter_block<V, 4>(block, i0, j0, k, g);
            } else {
              for (std::size_t a = 0; a < mi; ++a)
                for (std::size_t b = 0; b < mj; ++b)
                  if (j0 + b >= i0 + a)
                    g[packed_index(i0 + a, j0 + b, k)] +=
                        dot<V>(rows[i0 + a] + pb, rows[j0 + b] + pb, pc);
            }
          }
        }
      }
    }
  }
}

}  // namespace sa::la::simd::detail
