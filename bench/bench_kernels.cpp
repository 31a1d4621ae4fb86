// Kernel microbenchmarks (google-benchmark).
//
// These quantify the two hardware effects the paper leans on:
//   * the BLAS-3 effect: one s-column Gram (matrix-matrix) is more
//     cache-efficient than s separate dot products (BLAS-1) — the source
//     of the paper's "computation speedups" in Figure 4 (e–h);
//   * collective cost growth with rank count and payload.
#include <benchmark/benchmark.h>

#include <array>
#include <span>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/grouping.hpp"
#include "core/local_data.hpp"
#include "core/prox.hpp"
#include "data/partition.hpp"
#include "data/rng.hpp"
#include "data/synthetic.hpp"
#include "dist/thread_comm.hpp"
#include "la/batch_view.hpp"
#include "la/csc.hpp"
#include "la/csr.hpp"
#include "la/dense.hpp"
#include "la/simd/simd.hpp"
#include "la/vector_ops.hpp"
#include "la/workspace.hpp"

namespace {

sa::la::DenseMatrix random_dense(std::size_t rows, std::size_t cols,
                                 std::uint64_t seed) {
  sa::data::SplitMix64 rng(seed);
  sa::la::DenseMatrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) a(i, j) = rng.next_normal();
  return a;
}

/// BLAS-1 path: s separate dot products of length-m vectors.
void BM_SeparateDots(benchmark::State& state) {
  const std::size_t s = state.range(0);
  const std::size_t m = 4096;
  const sa::la::DenseMatrix a = random_dense(s, m, 1);
  std::vector<double> x(m, 1.0);
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i < s; ++i) acc += sa::la::dot(a.row(i), x);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * s * m);
}
BENCHMARK(BM_SeparateDots)->Arg(8)->Arg(32)->Arg(128);

/// Dense view over the rows of `a` (descriptors in `ptrs`).
sa::la::BatchView dense_view(const sa::la::DenseMatrix& a,
                             std::vector<const double*>& ptrs) {
  ptrs.clear();
  for (std::size_t i = 0; i < a.rows(); ++i) ptrs.push_back(a.row(i).data());
  return sa::la::BatchView::dense(ptrs, a.cols());
}

/// Naive pairwise-dot Gram — the pre-kernel-engine implementation, kept
/// as the baseline the blocked SYRK kernel is measured against.
void BM_NaiveGram(benchmark::State& state) {
  const std::size_t s = state.range(0);
  const std::size_t m = 4096;
  const sa::la::DenseMatrix a = random_dense(s, m, 1);
  for (auto _ : state) {
    sa::la::DenseMatrix g(s, s);
    for (std::size_t i = 0; i < s; ++i)
      for (std::size_t j = i; j < s; ++j)
        g(i, j) = sa::la::dot(a.row(i), a.row(j));
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations() * s * (s + 1) / 2 * m);
}
BENCHMARK(BM_NaiveGram)->Arg(8)->Arg(32)->Arg(64)->Arg(128);

/// BLAS-3 path: the s×s Gram of the same vectors in one call (tiled SYRK
/// with the 4×4 register micro-kernel).
void BM_BatchedGram(benchmark::State& state) {
  const std::size_t s = state.range(0);
  const std::size_t m = 4096;
  const sa::la::DenseMatrix a = random_dense(s, m, 1);
  std::vector<const double*> ptrs;
  const sa::la::BatchView batch = dense_view(a, ptrs);
  const std::size_t whole[2] = {0, m};
  std::vector<double> packed(sa::la::fused_buffer_size(s, 0));
  for (auto _ : state) {
    sa::la::sampled_gram_range(batch, whole, packed);
    benchmark::DoNotOptimize(packed.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * s * (s + 1) / 2 * m);
}
BENCHMARK(BM_BatchedGram)->Arg(8)->Arg(32)->Arg(64)->Arg(128);

/// Dot-section OpenMP scaling: one large batch, swept over thread counts.
void BM_DotAllThreads(benchmark::State& state) {
#ifdef _OPENMP
  omp_set_num_threads(static_cast<int>(state.range(0)));
#endif
  const std::size_t k = 256;
  const std::size_t m = 8192;  // 2·k·m crosses the parallel threshold
  const sa::la::DenseMatrix a = random_dense(k, m, 2);
  std::vector<const double*> ptrs;
  const sa::la::BatchView batch = dense_view(a, ptrs);
  std::vector<double> x(m, 1.0);
  const std::array<std::span<const double>, 1> xs{std::span<const double>(x)};
  const std::size_t whole[2] = {0, m};
  std::vector<double> out(k);
  for (auto _ : state) {
    sa::la::sampled_dots_range(batch, xs, whole, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * k * m);
#ifdef _OPENMP
  omp_set_num_threads(omp_get_num_procs());
#endif
}
BENCHMARK(BM_DotAllThreads)->Arg(1)->Arg(2)->Arg(4);

/// Sparse SpMV throughput at news20-like density.
void BM_CsrSpmv(benchmark::State& state) {
  sa::data::RegressionConfig cfg;
  cfg.num_points = state.range(0);
  cfg.num_features = 2048;
  cfg.density = 0.002;
  cfg.support_size = 16;
  const sa::data::Dataset d = sa::data::make_regression(cfg).dataset;
  std::vector<double> x(d.num_features(), 1.0);
  std::vector<double> y(d.num_points());
  for (auto _ : state) {
    d.a.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * d.nnz());
}
BENCHMARK(BM_CsrSpmv)->Arg(1024)->Arg(8192);

/// Gram of sampled sparse columns (the per-iteration SA kernel).
void BM_SparseColumnGram(benchmark::State& state) {
  const std::size_t k = state.range(0);
  sa::data::RegressionConfig cfg;
  cfg.num_points = 4096;
  cfg.num_features = 4096;
  cfg.density = 0.01;
  cfg.support_size = 16;
  const sa::data::Dataset d = sa::data::make_regression(cfg).dataset;
  const sa::la::CscMatrix csc(d.a);
  std::vector<std::span<const std::size_t>> idx;
  std::vector<std::span<const double>> val;
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t col = (j * 37) % d.num_features();
    idx.push_back(csc.col_indices(col));
    val.push_back(csc.col_values(col));
  }
  const sa::la::BatchView batch =
      sa::la::BatchView::sparse(idx, val, d.num_points());
  const std::size_t whole[2] = {0, d.num_points()};
  std::vector<double> packed(sa::la::fused_buffer_size(k, 0));
  for (auto _ : state) {
    sa::la::sampled_gram_range(batch, whole, packed);
    benchmark::DoNotOptimize(packed.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SparseColumnGram)->Arg(8)->Arg(64)->Arg(256);

// Datasets for the per-ISA matrix below: 4096 × 4096 at the given density.
sa::data::Dataset pipeline_dataset(double density) {
  sa::data::RegressionConfig cfg;
  cfg.num_points = 4096;
  cfg.num_features = 4096;
  cfg.density = density;
  cfg.support_size = 16;
  return sa::data::make_regression(cfg).dataset;
}

// ---------------------------------------------------------------------------
// Per-ISA kernel matrix: the engines' per-round Gram + dots stage —
// view_columns, then one sampled_gram_range + one sampled_dots_range call
// over a chunk grid of the shared dimension, exactly the calls a round
// makes — at every dispatchable ISA level (scalar / sse2 / avx2) ×
// {sparse, dense}, one residual dot section (the plain-mode wire format
// [upper(G) | Yᵀr̃]), with a GFLOP/s counter.  Two families:
//
//   * BM_KernelGramDots_<isa>_<storage>/s — one chunk (the full range),
//     s ∈ {1, 4, 16} blocks of µ = 64 columns: the dispatch win (avx2 vs
//     scalar on the same config) committed in BENCH_kernels.json and the
//     README table;
//   * BM_KernelGramDotsChunked_<isa>_<storage>/64 — one block of µ = 64
//     columns over the reduction grid at the automatic policy's G = 64
//     chunks: what the rank-count-invariant grid costs the fused kernels
//     (its G = 1 reference is BM_KernelGramDots_<isa>_<storage>/1).
// ---------------------------------------------------------------------------

void bench_kernel_isa_gram_dots(benchmark::State& state,
                                sa::la::simd::Isa isa, double density,
                                std::size_t s, std::size_t chunks) {
  if (!sa::la::simd::isa_available(isa)) {
    state.SkipWithError("ISA level not available on this build/machine");
    return;
  }
  const sa::la::simd::Isa entry = sa::la::simd::active_isa();
  sa::la::simd::set_kernel_isa(isa);

  const std::size_t mu = 64;
  const sa::data::Dataset d = pipeline_dataset(density);
  const sa::core::RowBlock block(
      d, sa::data::Partition::block(d.num_points(), 1), 0);
  sa::data::CoordinateSampler sampler(d.num_features(), mu, 3);
  std::vector<double> res(block.local_rows(), 1.0);
  const std::array<std::span<const double>, 1> rhs{
      std::span<const double>(res)};
  // The grid as the engines build it: chunks == 1 pins one chunk, 64 is
  // the automatic policy's target.
  const sa::common::ReduceGrouping grouping = sa::common::ReduceGrouping::make(
      block.local_rows(), chunks == 1 ? block.local_rows() : 0);
  std::vector<std::size_t> bounds(grouping.num_chunks() + 1);
  for (std::size_t c = 0; c < bounds.size(); ++c)
    bounds[c] = grouping.begin(c);
  const std::size_t n = grouping.num_chunks();
  sa::la::Workspace ws;
  const std::size_t k = s * mu;
  const std::size_t tri = n * sa::la::fused_buffer_size(k, 0);
  double flops = 0.0;
  for (auto _ : state) {
    const std::span<std::size_t> idx = ws.indices(0, k);
    for (std::size_t t = 0; t < s; ++t)
      sampler.next_into(idx.subspan(t * mu, mu));
    const sa::la::BatchView big = block.view_columns(idx, ws);
    const std::span<double> buffer = ws.doubles(0, tri + n * k);
    sa::la::sampled_gram_range(big, bounds, buffer.first(tri));
    sa::la::sampled_dots_range(big, rhs, bounds, buffer.subspan(tri));
    benchmark::DoNotOptimize(buffer.data());
    benchmark::ClobberMemory();
    flops += static_cast<double>(big.gram_flops() + big.dot_all_flops());
  }
  state.counters["GFLOP/s"] =
      benchmark::Counter(flops * 1e-9, benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() * s * mu);

  sa::la::simd::set_kernel_isa(entry);
}

#define SA_KERNEL_ISA_BENCH(name, isa, density)                      \
  void name(benchmark::State& state) {                               \
    bench_kernel_isa_gram_dots(state, sa::la::simd::Isa::isa,        \
                               density, state.range(0), 1);          \
  }                                                                  \
  BENCHMARK(name)->Arg(1)->Arg(4)->Arg(16)

SA_KERNEL_ISA_BENCH(BM_KernelGramDots_scalar_sparse, kScalar, 0.02);
SA_KERNEL_ISA_BENCH(BM_KernelGramDots_sse2_sparse, kSse2, 0.02);
SA_KERNEL_ISA_BENCH(BM_KernelGramDots_avx2_sparse, kAvx2, 0.02);
SA_KERNEL_ISA_BENCH(BM_KernelGramDots_scalar_dense, kScalar, 0.5);
SA_KERNEL_ISA_BENCH(BM_KernelGramDots_sse2_dense, kSse2, 0.5);
SA_KERNEL_ISA_BENCH(BM_KernelGramDots_avx2_dense, kAvx2, 0.5);

#undef SA_KERNEL_ISA_BENCH

#define SA_KERNEL_CHUNKED_BENCH(name, isa, density)                  \
  void name(benchmark::State& state) {                               \
    bench_kernel_isa_gram_dots(state, sa::la::simd::Isa::isa,        \
                               density, 1, state.range(0));          \
  }                                                                  \
  BENCHMARK(name)->Arg(64)

SA_KERNEL_CHUNKED_BENCH(BM_KernelGramDotsChunked_scalar_sparse, kScalar, 0.02);
SA_KERNEL_CHUNKED_BENCH(BM_KernelGramDotsChunked_sse2_sparse, kSse2, 0.02);
SA_KERNEL_CHUNKED_BENCH(BM_KernelGramDotsChunked_avx2_sparse, kAvx2, 0.02);
SA_KERNEL_CHUNKED_BENCH(BM_KernelGramDotsChunked_scalar_dense, kScalar, 0.5);
SA_KERNEL_CHUNKED_BENCH(BM_KernelGramDotsChunked_sse2_dense, kSse2, 0.5);
SA_KERNEL_CHUNKED_BENCH(BM_KernelGramDotsChunked_avx2_dense, kAvx2, 0.5);

#undef SA_KERNEL_CHUNKED_BENCH

/// Thread-team allreduce cost vs rank count and payload.
void BM_Allreduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t words = state.range(1);
  for (auto _ : state) {
    sa::dist::ThreadTeam team(ranks);
    team.run([&](sa::dist::ThreadComm& comm) {
      std::vector<double> data(words, 1.0);
      for (int round = 0; round < 8; ++round) comm.allreduce_sum(data);
    });
  }
  state.SetItemsProcessed(state.iterations() * 8 * words);
}
BENCHMARK(BM_Allreduce)
    ->Args({2, 64})
    ->Args({4, 64})
    ->Args({8, 64})
    ->Args({4, 4096});

/// Soft-threshold throughput (the prox inner loop).
void BM_SoftThreshold(benchmark::State& state) {
  std::vector<double> x(state.range(0));
  sa::data::SplitMix64 rng(3);
  for (double& v : x) v = rng.next_normal();
  std::vector<double> work = x;
  for (auto _ : state) {
    work = x;
    sa::core::soft_threshold(work, 0.5);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_SoftThreshold)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
