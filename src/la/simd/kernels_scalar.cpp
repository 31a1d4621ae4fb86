// Scalar kernel table: the pre-dispatch kernels, verbatim.
//
// These bodies are the exact loops that lived in vector_ops.cpp,
// batch_view.cpp, csr.cpp, and sparse_vector.cpp before the dispatch
// plane existed, ported to the table's raw-pointer signatures and
// compiled at the portable x86-64 baseline with contraction off (see
// CMakeLists) — the same codegen the default build produced.  Selecting
// this table therefore reproduces pre-PR results bit-for-bit, which
// tests/la/test_simd_dispatch.cpp pins against in-TU copies of the
// legacy loops and CI pins against golden solver output.
//
// Do not "improve" these loops: any change to an accumulation order
// here silently re-baselines every bitwise conformance suite.
#include <cmath>
#include <cstddef>

#include "la/simd/kernels.hpp"
#include "la/simd/kernels_impl.hpp"

namespace sa::la::simd {
namespace scalar {
namespace {

// Reduction kernels are 4-way unrolled: independent accumulators break
// the loop-carried add dependency and the lanes combine left-to-right
// ((a0+a1)+(a2+a3)) before the scalar tail — the legacy fixed order.

double dot(const double* x, const double* y, std::size_t n) {
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

void axpy(double alpha, const double* x, double* y, std::size_t n) {
  const std::size_t n4 = n - n % 4;
  for (std::size_t i = 0; i < n4; i += 4) {
    y[i] += alpha * x[i];
    y[i + 1] += alpha * x[i + 1];
    y[i + 2] += alpha * x[i + 2];
    y[i + 3] += alpha * x[i + 3];
  }
  for (std::size_t i = n4; i < n; ++i) y[i] += alpha * x[i];
}

double nrm2sq(const double* x, std::size_t n) {
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

double asum(const double* x, std::size_t n) {
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

double sum(const double* x, std::size_t n) {
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

// Sequential gather order: the sparse dot sections run this plain loop
// once per chunk segment (gather_dot_segments below).
double gather_dot(const double* vals, const std::size_t* idx,
                  std::size_t n, const double* x) {
  double acc = 0.0;
  for (std::size_t p = 0; p < n; ++p) acc += vals[p] * x[idx[p]];
  return acc;
}

// Two-accumulator gather order: the sparse Gram partner dots
// (sparse_fused_row) and CSR spmv rows used this pairwise loop.
double gather_dot2(const double* vals, const std::size_t* idx,
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

/// Full-speed micro-kernel: the 4×4 block of dot products between rows
/// ri[0..4) and rj[0..4), each of length d.  The omp-simd reduction
/// licenses the compiler to vectorise the sixteen independent
/// accumulation chains (named scalars — array reductions defeat the
/// vectoriser) without enabling unsafe math globally; the lane order is
/// fixed at compile time, so results stay deterministic.
inline void micro_gram_4x4(const double* const ri[4],
                           const double* const rj[4], std::size_t d,
                           double out[4][4]) {
  double a00 = 0, a01 = 0, a02 = 0, a03 = 0;
  double a10 = 0, a11 = 0, a12 = 0, a13 = 0;
  double a20 = 0, a21 = 0, a22 = 0, a23 = 0;
  double a30 = 0, a31 = 0, a32 = 0, a33 = 0;
#pragma omp simd reduction(+ : a00, a01, a02, a03, a10, a11, a12, a13, a20, \
                               a21, a22, a23, a30, a31, a32, a33)
  for (std::size_t p = 0; p < d; ++p) {
    const double x0 = ri[0][p], x1 = ri[1][p], x2 = ri[2][p], x3 = ri[3][p];
    const double y0 = rj[0][p], y1 = rj[1][p], y2 = rj[2][p], y3 = rj[3][p];
    a00 += x0 * y0; a01 += x0 * y1; a02 += x0 * y2; a03 += x0 * y3;
    a10 += x1 * y0; a11 += x1 * y1; a12 += x1 * y2; a13 += x1 * y3;
    a20 += x2 * y0; a21 += x2 * y1; a22 += x2 * y2; a23 += x2 * y3;
    a30 += x3 * y0; a31 += x3 * y1; a32 += x3 * y2; a33 += x3 * y3;
  }
  out[0][0] = a00; out[0][1] = a01; out[0][2] = a02; out[0][3] = a03;
  out[1][0] = a10; out[1][1] = a11; out[1][2] = a12; out[1][3] = a13;
  out[2][0] = a20; out[2][1] = a21; out[2][2] = a22; out[2][3] = a23;
  out[3][0] = a30; out[3][1] = a31; out[3][2] = a32; out[3][3] = a33;
}

/// Packed row-major upper-triangle index — must match
/// la::packed_upper_index (batch_view.hpp); duplicated locally so the
/// simd plane depends only on its own headers.
inline std::size_t packed_index(std::size_t i, std::size_t j,
                                std::size_t k) {
  return i * k - i * (i + 1) / 2 + j;
}

constexpr std::size_t kDepthChunk = 512;  // doubles per depth slice

/// The legacy dense Gram tile walker: full 4×4 blocks through the
/// micro-kernel (diagonal-straddling blocks waste a few lower-triangle
/// FMAs, cheaper than masking), ragged edges fall back to chunked dots,
/// one depth chunk at a time.  Accumulation order (chunk-major,
/// lane-strided) is fixed.
void gram_tile(const double* const* rows, std::size_t dim, std::size_t k,
               double* g, std::size_t ib, std::size_t ie, std::size_t jb,
               std::size_t je) {
  for (std::size_t pb = 0; pb < dim; pb += kDepthChunk) {
    const std::size_t pc = dim - pb < kDepthChunk ? dim - pb : kDepthChunk;
    for (std::size_t i0 = ib; i0 < ie; i0 += 4) {
      const std::size_t mi = ie - i0 < 4 ? ie - i0 : 4;
      for (std::size_t j0 = jb; j0 < je; j0 += 4) {
        const std::size_t mj = je - j0 < 4 ? je - j0 : 4;
        if (j0 + mj <= i0) continue;  // block entirely below the diagonal
        if (mi == 4 && mj == 4) {
          const double* ri[4] = {rows[i0] + pb, rows[i0 + 1] + pb,
                                 rows[i0 + 2] + pb, rows[i0 + 3] + pb};
          const double* rj[4] = {rows[j0] + pb, rows[j0 + 1] + pb,
                                 rows[j0 + 2] + pb, rows[j0 + 3] + pb};
          double block[4][4];
          micro_gram_4x4(ri, rj, pc, block);
          for (std::size_t a = 0; a < 4; ++a)
            for (std::size_t b = 0; b < 4; ++b)
              if (j0 + b >= i0 + a)
                g[packed_index(i0 + a, j0 + b, k)] += block[a][b];
        } else {
          for (std::size_t a = 0; a < mi; ++a)
            for (std::size_t b = 0; b < mj; ++b)
              if (j0 + b >= i0 + a)
                g[packed_index(i0 + a, j0 + b, k)] +=
                    dot(rows[i0 + a] + pb, rows[j0 + b] + pb, pc);
        }
      }
    }
  }
}

constexpr KernelTable kTable = {
    Isa::kScalar, &dot,         &axpy,         &nrm2sq,   &asum,
    &sum,         &gather_dot,  &gather_dot2,
    &detail::gather_segments<&gather_dot>,
    &detail::gather_segments<&gather_dot2>,
    &gram_tile,
};

}  // namespace
}  // namespace scalar

const KernelTable* scalar_table() { return &scalar::kTable; }

}  // namespace sa::la::simd
