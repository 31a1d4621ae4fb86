// The Group Lasso family engine: randomized group BCD with the
// non-separable block soft-threshold prox, classical (s = 1) and
// synchronization-avoiding (s > 1) in one class.  A communication round
// samples s_eff groups, packs the ONE fused RoundMessage
// [upper(G) | Yᵀr̃ | trailer], and replays the group updates redundantly.
#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.hpp"
#include "core/detail.hpp"
#include "core/engine.hpp"
#include "core/local_data.hpp"
#include "core/prox.hpp"
#include "data/rng.hpp"
#include "la/batch_view.hpp"
#include "la/eigen.hpp"
#include "la/vector_ops.hpp"
#include "la/workspace.hpp"

namespace sa::core {

namespace {

class GroupLassoEngine final : public detail::EngineBase {
 public:
  GroupLassoEngine(dist::Communicator& comm, const data::Dataset& dataset,
                   const data::Partition& rows, const SolverSpec& spec)
      : EngineBase(comm, spec),
        n_(dataset.num_features()),
        block_(dataset, rows, comm.rank()),
        rows_(rows),
        rng_(spec.seed),
        x_(n_, 0.0),
        res_(block_.local_rows()) {
    const GroupStructure& groups = spec_.groups;
    // Largest group size bounds every per-group scratch buffer below.
    std::size_t max_group = 0;
    for (std::size_t g = 0; g < groups.num_groups(); ++g)
      max_group = std::max(max_group,
                           groups.offsets[g + 1] - groups.offsets[g]);
    r_.resize(max_group);
    u_.resize(max_group);
    base_state_.resize(max_group);
    gjj_.reshape(max_group, max_group);
    eig_scratch_.reserve(max_group);
    group_of_.resize(spec_.unroll_depth());
    offset_.resize(spec_.unroll_depth() + 1);
    detail::presize_round_workspace(round_ws_, kSlotIdx,
                                    spec_.unroll_depth() * max_group);
    init_grouping(rows_);

    if (!spec_.x0.empty()) {
      x_ = spec_.x0;
      block_.matrix().spmv(x_, res_);
      for (std::size_t i = 0; i < res_.size(); ++i)
        res_[i] -= block_.labels()[i];
    } else {
      for (std::size_t i = 0; i < res_.size(); ++i)
        res_[i] = -block_.labels()[i];
    }
  }

 private:
  enum : std::size_t { kSlotIdx = 0 };
  enum : std::size_t { kSlotDelta = 0 };

  double penalty_value() const {
    const GroupStructure& groups = spec_.groups;
    double penalty = 0.0;
    for (std::size_t g = 0; g < groups.num_groups(); ++g) {
      const std::size_t begin = groups.offsets[g];
      penalty += la::nrm2(std::span<const double>(
          x_.data() + begin, groups.offsets[g + 1] - begin));
    }
    return spec_.lambda * penalty;
  }

  void record_trace_point(std::size_t iteration) override {
    const dist::CommStats snapshot = comm_.stats();
    // Trace instrumentation: runs only at user-requested trace points,
    // outside the round plane, and restores the comm stats it perturbs.
    const double total_sq = grouped_norm_allreduce(res_);
    const double penalty = penalty_value();
    comm_.set_stats(snapshot);
    push_trace_point(iteration, 0.5 * total_sq + penalty, snapshot);
  }

  // --- Round-objective piggyback (kObjective trailer section): the
  // residual norm splits over the row partition; the replicated group
  // penalty is stashed at pack time so the criterion's objective matches
  // the iterate that produced the partial.
  bool has_round_objective() const override { return true; }

  void write_round_objective(dist::RoundMessage& msg) override {
    pending_penalty_ = penalty_value();
    comm_.add_flops(2 * res_.size());
    comm_.add_replicated_flops(2 * n_);
    fold_norm_squared(msg, dist::RoundSection::kObjective, res_);
  }

  double objective_from_partial(double reduced_partial) override {
    return 0.5 * reduced_partial + pending_penalty_;
  }

  void pack_round(std::size_t s_eff, dist::RoundMessage& msg) override {
    const GroupStructure& groups = spec_.groups;

    // --- Sample s_eff groups (with replacement, seed-replicated).
    //     Groups vary in size, so track the offset of each block inside
    //     the stacked batch; the sampled column indices are contiguous
    //     runs viewed zero-copy in the resident CSC storage. ---
    offset_[0] = 0;
    for (std::size_t t = 0; t < s_eff; ++t) {
      const auto g =
          static_cast<std::size_t>(rng_.next_below(groups.num_groups()));
      group_of_[t] = g;
      offset_[t + 1] =
          offset_[t] + (groups.offsets[g + 1] - groups.offsets[g]);
    }
    const std::size_t k = offset_[s_eff];
    const std::span<std::size_t> idx = round_ws_.indices(kSlotIdx, k);
    for (std::size_t t = 0; t < s_eff; ++t) {
      const std::size_t begin = groups.offsets[group_of_[t]];
      for (std::size_t l = 0; l < offset_[t + 1] - offset_[t]; ++l)
        idx[offset_[t] + l] = begin + l;
    }
    big_ = block_.view_columns(idx, round_ws_);

    // --- The ONE message: [upper(G) | Yᵀr̃], partials per OWNED global
    //     row chunk folded through the grouping's tree
    //     (rank-count-invariant reduction grouping). ---
    msg.layout(detail::triangle_size(k), k, 0);
    msg.fold_owned(dist::RoundSection::kGram, dist::RoundSection::kGram,
                   [&](std::span<const std::size_t> bounds,
                       std::span<double> staged) {
                     la::sampled_gram_range(big_, bounds, staged);
                   });
    comm_.add_flops(big_.gram_flops());

    const std::array<std::span<const double>, 1> rhs{
        std::span<const double>(res_)};
    const std::span<const std::span<const double>> rhs_span(rhs);
    msg.fold_owned(dist::RoundSection::kDots1, dist::RoundSection::kDots2,
                   [&](std::span<const std::size_t> bounds,
                       std::span<double> staged) {
                     la::sampled_dots_range(big_, rhs_span, bounds, staged);
                   });
    comm_.add_flops(big_.dot_all_flops());
  }

  void apply_round(std::size_t s_eff,
                   const dist::RoundMessage& msg) override {
    const GroupStructure& groups = spec_.groups;
    const std::size_t k = offset_[s_eff];
    const detail::PackedUpper gram(
        msg.section(dist::RoundSection::kGram).data(), k);
    const std::span<const double> rdots =
        msg.section(dist::RoundSection::kDots1);

    // --- Redundant inner iterations: the plain-BCD unrolling with the
    //     group soft-threshold as the (non-separable) prox. ---
    const std::span<double> delta = ws_.doubles(kSlotDelta, k);
    la::fill(delta, 0.0);
    for (std::size_t j = 0; j < s_eff; ++j) {
      const std::size_t size = offset_[j + 1] - offset_[j];

      // Cheap v == 0 pre-check via the (global) Gram diagonal: a PSD
      // block is zero iff its diagonal is, and the allreduced diagonal is
      // identical on every rank, so the branch stays replicated.
      bool empty_block = true;
      for (std::size_t a = 0; a < size; ++a) {
        if (gram(offset_[j] + a, offset_[j] + a) != 0.0) {
          empty_block = false;
          break;
        }
      }
      if (empty_block) continue;  // all-zero group block: no update

      gjj_.reshape(size, size);
      for (std::size_t a = 0; a < size; ++a)
        for (std::size_t b = 0; b < size; ++b)
          gjj_(a, b) = gram(offset_[j] + a, offset_[j] + b);
      const double v = la::largest_eigenvalue_psd(gjj_, eig_scratch_);
      comm_.add_replicated_flops(detail::eig_flops(size));
      if (v == 0.0) continue;  // all-zero group block: no update
      const double eta = 1.0 / v;

      // r_j = A_gⱼᵀ r̃_sk + Σ_{t<j} G_{jt} Δ_t  (unrolled residual).
      for (std::size_t a = 0; a < size; ++a) r_[a] = rdots[offset_[j] + a];
      for (std::size_t t = 0; t < j; ++t) {
        const std::size_t tsize = offset_[t + 1] - offset_[t];
        for (std::size_t a = 0; a < size; ++a) {
          double acc = 0.0;
          for (std::size_t b = 0; b < tsize; ++b)
            acc +=
                gram(offset_[j] + a, offset_[t] + b) * delta[offset_[t] + b];
          r_[a] += acc;
        }
        comm_.add_replicated_flops(2 * size * tsize);
      }

      // Deferred group state: x_gⱼ plus earlier updates to the SAME group
      // (groups are disjoint, so overlap is all-or-nothing).
      const std::size_t begin = groups.offsets[group_of_[j]];
      for (std::size_t a = 0; a < size; ++a) u_[a] = x_[begin + a];
      for (std::size_t t = 0; t < j; ++t) {
        if (group_of_[t] != group_of_[j]) continue;
        for (std::size_t a = 0; a < size; ++a)
          u_[a] += delta[offset_[t] + a];
      }
      for (std::size_t a = 0; a < size; ++a) base_state_[a] = u_[a];

      // Joint proximal step:  u := GST(u − η·r, λη).
      for (std::size_t a = 0; a < size; ++a) u_[a] -= eta * r_[a];
      group_soft_threshold(std::span<double>(u_.data(), size),
                           spec_.lambda * eta);
      for (std::size_t a = 0; a < size; ++a)
        delta[offset_[j] + a] = u_[a] - base_state_[a];
    }

    // --- Deferred batch updates. ---
    for (std::size_t t = 0; t < s_eff; ++t) {
      const std::size_t begin = groups.offsets[group_of_[t]];
      for (std::size_t a = 0; a < offset_[t + 1] - offset_[t]; ++a) {
        const double d = delta[offset_[t] + a];
        if (d == 0.0) continue;
        x_[begin + a] += d;
        big_.add_scaled_to(offset_[t] + a, d, res_);
        comm_.add_flops(2 * big_.member_nnz(offset_[t] + a));
      }
    }
  }

  void assemble(SolveResult& out) override { out.x = x_; }

  // --- Snapshot/resume: the replicated iterate, the partitioned residual
  // gathered to full length (its accumulated bits, not a recomputation),
  // and the group sampler's generator state. ---
  void save_engine_state(io::SnapshotWriter& out) override {
    out.add_doubles("group-lasso/x", x_);
    out.add_doubles("group-lasso/res",
                    gather_full(res_, rows_.begin(comm_.rank()),
                                rows_.total()));
    out.add_u64("group-lasso/rng", rng_.state());
  }

  void load_engine_state(const io::SnapshotReader& in) override {
    const std::span<const double> x = in.doubles("group-lasso/x", n_);
    const std::span<const double> res =
        in.doubles("group-lasso/res", rows_.total());
    const std::uint64_t rng = in.word("group-lasso/rng");
    la::copy(x, x_);
    la::copy(res.subspan(rows_.begin(comm_.rank()), res_.size()), res_);
    rng_.set_state(rng);
  }

  const std::size_t n_;
  RowBlock block_;
  const data::Partition rows_;
  data::SplitMix64 rng_;

  std::vector<double> x_;
  std::vector<double> res_;  // r̃ = A·x − b (local slice)

  // s-step workspace.  Unlike the fixed-µ solvers, k varies per round
  // when groups have unequal sizes, so the arena slots high-water-mark
  // their capacity; the per-group scratch is sized by max_group up front,
  // leaving the steady-state loop allocation-free.
  la::Workspace ws_;
  std::vector<double> r_;
  std::vector<double> u_;
  std::vector<double> base_state_;
  la::DenseMatrix gjj_;
  la::EigenScratch eig_scratch_;

  // Pack-to-apply round state: the sampled groups, their batch offsets,
  // and the zero-copy view over the stacked indices (indices and view
  // descriptors live in round_ws_).
  la::Workspace round_ws_;
  std::vector<std::size_t> group_of_;
  std::vector<std::size_t> offset_;
  la::BatchView big_;
  double pending_penalty_ = 0.0;
};

}  // namespace

namespace detail {

std::unique_ptr<Solver> make_group_lasso_engine(dist::Communicator& comm,
                                                const data::Dataset& dataset,
                                                const data::Partition& rows,
                                                const SolverSpec& spec) {
  spec.validate(dataset);
  return std::make_unique<GroupLassoEngine>(comm, dataset, rows, spec);
}

}  // namespace detail

}  // namespace sa::core
