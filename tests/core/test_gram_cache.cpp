// The dense Gram cache (core/engine.hpp): a narrow dense block's whole
// member Gram is built once and every round's kGram section is gathered
// from it.  The gathered words must be bitwise what the round's own Gram
// kernel and fold write — on the payload wire and on the slotted wire, at
// every kernel table, OpenMP team size and chunk grid, with and without
// repeated members — and the cache must engage exactly where its rule
// says, with the build metered once.
#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/detail.hpp"
#include "core/engine.hpp"
#include "core/local_data.hpp"
#include "core/registry.hpp"
#include "data/rng.hpp"
#include "data/synthetic.hpp"
#include "dist/round_message.hpp"
#include "la/batch_view.hpp"
#include "la/simd/simd.hpp"
#include "la/workspace.hpp"

namespace sa::core {
namespace {

using detail::GramCache;
namespace simd = la::simd;

data::Dataset dense_problem(std::size_t rows, std::size_t cols,
                            std::uint64_t seed) {
  data::RegressionConfig cfg;
  cfg.num_points = rows;
  cfg.num_features = cols;
  cfg.density = 1.0;
  cfg.support_size = 4;
  cfg.seed = seed;
  return data::make_regression(cfg).dataset;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The sampled member ids of the cache tests over an n-member block:
/// "tail" counts down from the last member (no repeats, descending, so
/// every gather reads a transposed table entry and the padded tail's
/// neighbours are drawn), "engine" is the engine's draw of s blocks of 8
/// distinct members (repeats across blocks), "same" repeats one member.
std::vector<std::size_t> members_for(std::string_view pattern, std::size_t k,
                                     std::size_t n) {
  std::vector<std::size_t> ids(k);
  for (std::size_t i = 0; i < k; ++i) {
    if (pattern == "tail") ids[i] = n - 1 - i;
    if (pattern == "same") ids[i] = n - 2;
  }
  if (pattern == "engine") {
    data::CoordinateSampler sampler(n, 8, k);
    std::vector<std::size_t> block(8);
    for (std::size_t t = 0; t < k; t += 8) {
      sampler.next_into(block);
      for (std::size_t a = 0; a < 8 && t + a < k; ++a) ids[t + a] = block[a];
    }
  }
  return ids;
}

// Against the round's own path — sampled_gram_range over the sampled view,
// staged and folded by RoundMessage::fold_owned — the cache's gather must
// leave the whole packed buffer bitwise equal: for k ∈ {8, 36, 64}, with
// and without repeats, at every kernel table, at one and two OpenMP
// threads, on grids of 1, 7 and 64 chunks, at P = 1 (payload wire) and at
// every rank of P = 3 (slotted wire).  The block has 102 members, so the
// table is padded to 104; 1152 rows put the one-chunk grid across three
// 512-deep slices.
TEST(GramCache, GatherIsBitwiseTheSampledWalk) {
  const simd::Isa entry_isa = simd::active_isa();
#ifdef _OPENMP
  const int entry_threads = omp_get_max_threads();
#endif
  const std::size_t m = 1152;
  const std::size_t n = 102;
  const data::Dataset d = dense_problem(m, n, 41);
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2}) {
    if (!simd::isa_available(isa)) continue;
    ASSERT_TRUE(simd::set_kernel_isa(isa));
    for (const int threads : {1, 2}) {
#ifdef _OPENMP
      omp_set_num_threads(threads);
#endif
      for (const std::size_t g :
           {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
        const common::ReduceGrouping grouping =
            common::ReduceGrouping::make(m, (m + g - 1) / g);
        for (const int ranks : {1, 3}) {
          const data::Partition rows = data::Partition::block(m, ranks);
          for (int r = 0; r < ranks; ++r) {
            const RowBlock block(d, rows, r);
            la::Workspace ref_ws;
            la::Workspace cache_ws;
            la::Workspace view_ws;
            dist::RoundMessage ref(ref_ws);
            dist::RoundMessage cached(cache_ws);
            ref.set_grouping(grouping, rows.offsets(), r);
            cached.set_grouping(grouping, rows.offsets(), r);
            ASSERT_EQ(cached.payload_wire(), ranks == 1);
            GramCache cache;
            cache.arm(n, cached,
                      [&](std::span<const std::size_t> ids,
                          la::Workspace& ws) {
                        return block.view_columns(ids, ws);
                      });
            ASSERT_TRUE(cache.armed());
            for (const std::size_t k :
                 {std::size_t{8}, std::size_t{36}, std::size_t{64}}) {
              for (const char* pattern : {"tail", "engine", "same"}) {
                SCOPED_TRACE(::testing::Message()
                             << simd::to_cstring(isa) << " threads="
                             << threads << " G=" << g << " P=" << ranks
                             << " rank " << r << " k=" << k << " "
                             << pattern);
                const std::vector<std::size_t> ids =
                    members_for(pattern, k, n);
                const la::BatchView y = block.view_columns(ids, view_ws);
                const std::size_t tri = detail::triangle_size(k);
                ref.layout(tri, 0, 0);
                ref.fold_owned(dist::RoundSection::kGram,
                               dist::RoundSection::kGram,
                               [&](std::span<const std::size_t> bounds,
                                   std::span<double> staged) {
                                 la::sampled_gram_range(y, bounds, staged);
                               });
                cached.layout(tri, 0, 0);
                cache.write(cached, ids);
                EXPECT_TRUE(same_bits(cached.packed(), ref.packed()));
              }
            }
          }
        }
      }
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(entry_threads);
#endif
  simd::set_kernel_isa(entry_isa);
}

// The rule: tri(N₄) ≤ 4·tri(k_max), N₄ the member count rounded up to a
// multiple of 4.  At k_max = 8 (4·36 = 144 words) 16 members fit
// (tri(16) = 136) and 17 do not (N₄ = 20, tri(20) = 210).  The perfbench
// dense twin (100 members, k = 64) and the resume suites' Group Lasso
// fixture (28 members, k = 16) fit.
TEST(GramCache, RuleCachesAtMostFourRoundsOfGram) {
  EXPECT_EQ(GramCache::kMaxRounds, 4u);
  EXPECT_TRUE(GramCache::fits(13, 8));
  EXPECT_TRUE(GramCache::fits(16, 8));
  EXPECT_FALSE(GramCache::fits(17, 8));
  EXPECT_TRUE(GramCache::fits(100, 64));
  EXPECT_TRUE(GramCache::fits(28, 16));
  EXPECT_FALSE(GramCache::fits(101, 8));
}

/// Metered flops of a plain sa-lasso solve (µ = 2, s = 4, 10 rounds) on
/// an m × n dense block whose λ is so large that no step moves: the Gram
/// and the one dot section are then the only data-parallel work.
std::size_t metered_flops(std::size_t m, std::size_t n) {
  const data::Dataset d = dense_problem(m, n, 43);
  SolverSpec spec = SolverSpec::make("sa-lasso");
  spec.lambda = 1e6;
  spec.block_size = 2;
  spec.s = 4;
  spec.accelerated = false;
  spec.max_iterations = 40;
  spec.trace_every = 0;
  return solve(d, spec).stats.flops;
}

// A block just above the threshold runs the per-round Gram (k(k+1)·m flops
// each round); one at the threshold is built once (N₄(N₄+1)·m flops, in
// the first round) and meters no Gram flops on its rounds.
TEST(GramCache, BlockJustAboveTheThresholdIsNotCached) {
  const std::size_t m = 40;
  const std::size_t k = 8;
  const std::size_t rounds = 10;
  const std::size_t dots = 2 * k * m;  // one dot section per round
  EXPECT_EQ(metered_flops(m, 17), rounds * (k * (k + 1) * m + dots));
  EXPECT_EQ(metered_flops(m, 16), 16 * 17 * m + rounds * dots);
}

// A sparse block never reaches the cache, however narrow.
TEST(GramCache, SparseBlockStaysUnarmed) {
  data::RegressionConfig cfg;
  cfg.num_points = 200;
  cfg.num_features = 12;
  cfg.density = 0.1;
  cfg.seed = 44;
  const data::Dataset d = data::make_regression(cfg).dataset;
  const RowBlock block(d, data::Partition::block(d.num_points(), 1), 0);
  la::Workspace ws;
  dist::RoundMessage msg(ws);
  GramCache cache;
  cache.arm(d.num_features(), msg,
            [&](std::span<const std::size_t> ids, la::Workspace& view_ws) {
              return block.view_columns(ids, view_ws);
            });
  EXPECT_FALSE(cache.armed());
}

}  // namespace
}  // namespace sa::core
