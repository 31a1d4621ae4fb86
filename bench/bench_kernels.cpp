// Kernel microbenchmarks (google-benchmark).
//
// These quantify the two hardware effects the paper leans on:
//   * the BLAS-3 effect: one s-column Gram (matrix-matrix) is more
//     cache-efficient than s separate dot products (BLAS-1) — the source
//     of the paper's "computation speedups" in Figure 4 (e–h);
//   * collective cost growth with rank count and payload.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <span>
#include <utility>
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
#include "la/csr.hpp"
#include "la/dense.hpp"
#include "la/eigen.hpp"
#include "la/simd/kernels.hpp"
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
  const sa::la::CsrMatrix columns = d.a.transposed();
  std::vector<std::span<const std::size_t>> idx;
  std::vector<std::span<const double>> val;
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t col = (j * 37) % d.num_features();
    idx.push_back(columns.row_indices(col));
    val.push_back(columns.row_values(col));
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
//     (its G = 1 reference is BM_KernelGramDots_<isa>_<storage>/1), plus
//     a news20-density (0.0013) sparse row.
//
// The dense rows also sweep the OpenMP team size: their last argument
// (1, 2 or 4) goes to omp_set_num_threads, so OMP_NUM_THREADS does not
// matter for them.  Every row times wall clock (UseRealTime):
// google-benchmark's default rate divides by the main thread's CPU time,
// which leaves out the time it sleeps in the OpenMP barrier waiting for
// the other threads, so at 2+ threads GFLOP/s read high whenever the
// team was unbalanced — the "superlinear" 1→2 thread scaling once
// recorded here.
// The zmm_gram counter is 1 when the Gram ran the avx2 table's 512-bit
// gram_tile (kernels_avx512.cpp); 0 for the ymm or narrower tiles and for
// the sparse rows, whose Gram never calls gram_tile.  The distinct
// counter is the mean number of distinct columns per batch; GFLOP/s
// always counts the metered k-member flops, so a batch with repeats
// (whose dense Gram computes each distinct pair once) reads high.
//
// BM_KernelGramDotsDrawn_avx2_dense/threads is the lasso-dense-p1 round:
// s = 8 blocks of µ = 8 columns drawn as the engine draws them (each
// block distinct, the blocks independent) from the epsilon twin's
// n = 100 columns (shrink 20, 20,000 rows), over the automatic 64-chunk
// grid — about 49 of its 64 members are distinct.
//
// The sparse Gram runs through sampled_gram_range, the chunk-major staged
// form of the support-intersection kernel, so each sparse row also pays
// the +0.0 fill of G·k(k+1)/2 words that a round's entry path
// (RoundMessage::fold_entries) skips.
// ---------------------------------------------------------------------------

void bench_kernel_isa_gram_dots(benchmark::State& state,
                                sa::la::simd::Isa isa,
                                const sa::data::Dataset& d, std::size_t mu,
                                std::size_t s, std::size_t chunks,
                                int threads) {
  if (!sa::la::simd::isa_available(isa)) {
    state.SkipWithError("ISA level not available on this build/machine");
    return;
  }
  const sa::la::simd::Isa entry = sa::la::simd::active_isa();
  sa::la::simd::set_kernel_isa(isa);
#ifdef _OPENMP
  const int entry_threads = omp_get_max_threads();
  if (threads > 0) omp_set_num_threads(threads);
#else
  (void)threads;
#endif

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
  double distinct = 0.0;
  std::vector<char> seen(d.num_features(), 0);
  bool dense = false;
  for (auto _ : state) {
    const std::span<std::size_t> idx = ws.indices(0, k);
    for (std::size_t t = 0; t < s; ++t)
      sampler.next_into(idx.subspan(t * mu, mu));
    for (const std::size_t c : idx) {
      distinct += seen[c] == 0 ? 1.0 : 0.0;
      seen[c] = 1;
    }
    for (const std::size_t c : idx) seen[c] = 0;
    const sa::la::BatchView big = block.view_columns(idx, ws);
    dense = big.is_dense();
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
  state.counters["distinct"] =
      distinct / static_cast<double>(state.iterations());
  const sa::la::simd::KernelTable* zmm = sa::la::simd::avx2_zmm_table();
  state.counters["zmm_gram"] =
      dense && zmm != nullptr &&
      sa::la::simd::active().gram_tile == zmm->gram_tile;

#ifdef _OPENMP
  omp_set_num_threads(entry_threads);
#endif
  sa::la::simd::set_kernel_isa(entry);
}

// Sparse rows take the team size from the environment (threads 0); dense
// rows sweep it as their second argument.
std::vector<std::vector<std::int64_t>> with_threads(
    std::vector<std::int64_t> first, bool sweep) {
  if (!sweep) return {std::move(first)};
  return {std::move(first), {1, 2, 4}};
}

int threads_arg(const benchmark::State& state, bool sweep) {
  return sweep ? static_cast<int>(state.range(1)) : 0;
}

#define SA_KERNEL_ISA_BENCH(name, isa, density, sweep)                    \
  void name(benchmark::State& state) {                                    \
    bench_kernel_isa_gram_dots(state, sa::la::simd::Isa::isa,             \
                               pipeline_dataset(density), 64,             \
                               state.range(0), 1, threads_arg(state, sweep)); \
  }                                                                       \
  BENCHMARK(name)->ArgsProduct(with_threads({1, 4, 16}, sweep))->UseRealTime()

SA_KERNEL_ISA_BENCH(BM_KernelGramDots_scalar_sparse, kScalar, 0.02, false);
SA_KERNEL_ISA_BENCH(BM_KernelGramDots_sse2_sparse, kSse2, 0.02, false);
SA_KERNEL_ISA_BENCH(BM_KernelGramDots_avx2_sparse, kAvx2, 0.02, false);
SA_KERNEL_ISA_BENCH(BM_KernelGramDots_scalar_dense, kScalar, 0.5, true);
SA_KERNEL_ISA_BENCH(BM_KernelGramDots_sse2_dense, kSse2, 0.5, true);
SA_KERNEL_ISA_BENCH(BM_KernelGramDots_avx2_dense, kAvx2, 0.5, true);

#undef SA_KERNEL_ISA_BENCH

#define SA_KERNEL_CHUNKED_BENCH(name, isa, density, sweep)                \
  void name(benchmark::State& state) {                                    \
    bench_kernel_isa_gram_dots(state, sa::la::simd::Isa::isa,             \
                               pipeline_dataset(density), 64, 1,          \
                               state.range(0), threads_arg(state, sweep)); \
  }                                                                       \
  BENCHMARK(name)->ArgsProduct(with_threads({64}, sweep))->UseRealTime()

SA_KERNEL_CHUNKED_BENCH(BM_KernelGramDotsChunked_scalar_sparse, kScalar, 0.02,
                        false);
SA_KERNEL_CHUNKED_BENCH(BM_KernelGramDotsChunked_sse2_sparse, kSse2, 0.02,
                        false);
SA_KERNEL_CHUNKED_BENCH(BM_KernelGramDotsChunked_avx2_sparse, kAvx2, 0.02,
                        false);
// news20's density: a column holds about 5 nonzeros of the 4096 rows, so
// two columns share a row in well under 1% of (pair, chunk) triples —
// the regime the sparse Gram's support intersection targets.
SA_KERNEL_CHUNKED_BENCH(BM_KernelGramDotsChunked_scalar_news20_sparse, kScalar,
                        0.0013, false);
SA_KERNEL_CHUNKED_BENCH(BM_KernelGramDotsChunked_sse2_news20_sparse, kSse2,
                        0.0013, false);
SA_KERNEL_CHUNKED_BENCH(BM_KernelGramDotsChunked_avx2_news20_sparse, kAvx2,
                        0.0013, false);
SA_KERNEL_CHUNKED_BENCH(BM_KernelGramDotsChunked_scalar_dense, kScalar, 0.5,
                        true);
SA_KERNEL_CHUNKED_BENCH(BM_KernelGramDotsChunked_sse2_dense, kSse2, 0.5, true);
SA_KERNEL_CHUNKED_BENCH(BM_KernelGramDotsChunked_avx2_dense, kAvx2, 0.5, true);

#undef SA_KERNEL_CHUNKED_BENCH

/// The epsilon twin the lasso-dense-p1 workload solves (instance 0).
const sa::data::Dataset& epsilon_twin() {
  static const sa::data::Dataset d =
      sa::data::make_paper_twin(sa::data::PaperDataset::kEpsilon, 20.0, 1000);
  return d;
}

void BM_KernelGramDotsDrawn_avx2_dense(benchmark::State& state) {
  bench_kernel_isa_gram_dots(state, sa::la::simd::Isa::kAvx2, epsilon_twin(),
                             8, 8, 64, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_KernelGramDotsDrawn_avx2_dense)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// The deferred batch update of a dense round: 64 members' steps onto one
// residual image (the epsilon twin's 20,000 rows), as one
// BatchView::add_combination_to call (row blocks, one OpenMP region) or
// as the per-member add_scaled_to loop it replaces — the same bits.  The
// argument is the OpenMP team size; items are member steps.
// ---------------------------------------------------------------------------

void bench_batch_update(benchmark::State& state, bool combination) {
#ifdef _OPENMP
  const int entry_threads = omp_get_max_threads();
  omp_set_num_threads(static_cast<int>(state.range(0)));
#endif
  const sa::data::Dataset& d = epsilon_twin();
  const sa::core::RowBlock block(
      d, sa::data::Partition::block(d.num_points(), 1), 0);
  sa::data::CoordinateSampler sampler(d.num_features(), 8, 3);
  const std::size_t k = 64;
  std::vector<std::size_t> cols(k);
  for (std::size_t t = 0; t < k; t += 8)
    sampler.next_into(std::span<std::size_t>(cols).subspan(t, 8));
  sa::la::Workspace ws;
  const sa::la::BatchView big = block.view_columns(cols, ws);
  std::vector<std::size_t> members(k);
  std::vector<double> steps(k);
  sa::data::SplitMix64 rng(4);
  for (std::size_t q = 0; q < k; ++q) {
    members[q] = q;
    steps[q] = 1e-3 * rng.next_normal();
  }
  std::vector<double> target(block.local_rows(), 0.0);
  for (auto _ : state) {
    if (combination) {
      big.add_combination_to(members, steps, target);
    } else {
      for (std::size_t q = 0; q < k; ++q)
        big.add_scaled_to(members[q], steps[q], target);
    }
    benchmark::DoNotOptimize(target.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * k);
#ifdef _OPENMP
  omp_set_num_threads(entry_threads);
#endif
}

void BM_BatchUpdate_combination_dense(benchmark::State& state) {
  bench_batch_update(state, true);
}
BENCHMARK(BM_BatchUpdate_combination_dense)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

void BM_BatchUpdate_per_member_dense(benchmark::State& state) {
  bench_batch_update(state, false);
}
BENCHMARK(BM_BatchUpdate_per_member_dense)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Step-size eigensolve: la::largest_eigenvalue_psd on the µ×µ diagonal
// Gram blocks the lasso solvers pass it every inner step, µ ∈ {4, 8, 16,
// 32}.  Each row cycles over 100 blocks sampled the way a solve samples
// them (CoordinateSampler + view_columns + sampled_gram_range over the
// whole row range), from two paper twins:
//
//   * BM_LargestEigenvalue_sparse — the news20 twin (0.13 % dense, the
//     lasso-sparse-p2 data): near-diagonal blocks;
//   * BM_LargestEigenvalue_dense — the epsilon twin at shrink 20 (the
//     lasso-dense-p1 data): full blocks.
//
// Blocks whose diagonal is all zero are not drawn (the solvers skip them
// without an eigensolve).  Time per call is 1 / items_per_second.
// ---------------------------------------------------------------------------

std::vector<sa::la::DenseMatrix> sampled_gram_blocks(
    const sa::data::Dataset& d, std::size_t mu) {
  const sa::core::RowBlock block(
      d, sa::data::Partition::block(d.num_points(), 1), 0);
  sa::data::CoordinateSampler sampler(d.num_features(), mu, 5);
  sa::la::Workspace ws;
  const std::size_t whole[2] = {0, block.local_rows()};
  std::vector<double> packed(sa::la::fused_buffer_size(mu, 0));
  std::vector<sa::la::DenseMatrix> blocks;
  while (blocks.size() < 100) {
    const std::span<std::size_t> idx = ws.indices(0, mu);
    sampler.next_into(idx);
    sa::la::sampled_gram_range(block.view_columns(idx, ws), whole, packed);
    sa::la::DenseMatrix g(mu, mu);
    bool empty = true;
    for (std::size_t i = 0; i < mu; ++i) {
      for (std::size_t j = i; j < mu; ++j)
        g(i, j) = g(j, i) = packed[sa::la::packed_upper_index(i, j, mu)];
      empty = empty && g(i, i) == 0.0;
    }
    if (!empty) blocks.push_back(std::move(g));
  }
  return blocks;
}

void bench_largest_eigenvalue(benchmark::State& state,
                              const sa::data::Dataset& d) {
  const std::size_t mu = state.range(0);
  const std::vector<sa::la::DenseMatrix> blocks = sampled_gram_blocks(d, mu);
  sa::la::DenseMatrix gjj(mu, mu);
  for (auto _ : state) {
    for (const sa::la::DenseMatrix& g : blocks) {
      sa::la::copy(g.data(), gjj.data());
      double v = sa::la::largest_eigenvalue_psd(gjj);
      benchmark::DoNotOptimize(v);
    }
  }
  state.SetItemsProcessed(state.iterations() * blocks.size());
}

void BM_LargestEigenvalue_sparse(benchmark::State& state) {
  static const sa::data::Dataset d =
      sa::data::make_paper_twin(sa::data::PaperDataset::kNews20, 1.0, 1000);
  bench_largest_eigenvalue(state, d);
}
BENCHMARK(BM_LargestEigenvalue_sparse)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_LargestEigenvalue_dense(benchmark::State& state) {
  bench_largest_eigenvalue(state, epsilon_twin());
}
BENCHMARK(BM_LargestEigenvalue_dense)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

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
