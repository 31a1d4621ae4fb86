// The proximal least-squares engine: Lasso/elastic net (paper Algorithms
// 1 and 2) and Group Lasso.
//
// One class implements CD/BCD/accCD/accBCD, randomized group BCD, *and*
// their synchronization-avoiding variants: a communication round samples
// s_eff blocks, packs the ONE fused RoundMessage
// [upper(G) | Yᵀỹ | Yᵀz̃ | trailer], and replays s_eff redundant inner
// iterations — with s_eff == 1 this is exactly Algorithm 1, so the
// classical solvers are this engine at unrolling depth 1 (and inherit the
// zero-copy la::BatchView + la::Workspace pipeline for free).
//
// The family (SolverSpec::family()) fixes three things, once:
//   block draw  Lasso: µ distinct coordinates from CoordinateSampler;
//               Group Lasso: one whole group, drawn with replacement.
//   prox        Lasso: the elementwise ProxSpec; Group Lasso: the
//               non-separable group soft-threshold over the block.
//   penalty     λ‖x‖₁ / elastic net, or λ·Σ_g ‖x_g‖₂.
// Group Lasso is plain (unaccelerated) and ignores `penalty` and
// `block_size`; everything else — Gram corrections, deferred state,
// batch updates, metering — is shared.
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

/// Widest block a round can draw: µ, or the largest group.
std::size_t max_block_width(const SolverSpec& spec) {
  if (spec.family() != SolverFamily::kGroupLasso) return spec.block_size;
  const GroupStructure& groups = spec.groups;
  std::size_t width = 0;
  for (std::size_t g = 0; g < groups.num_groups(); ++g)
    width = std::max(width, groups.offsets[g + 1] - groups.offsets[g]);
  return width;
}

class LassoEngine final : public detail::EngineBase {
 public:
  LassoEngine(dist::Communicator& comm, const data::Dataset& dataset,
              const data::Partition& rows, const SolverSpec& spec)
      : EngineBase(comm, spec),
        n_(dataset.num_features()),
        grouped_(spec.family() == SolverFamily::kGroupLasso),
        accelerated_(spec.accelerated && !grouped_),
        mu_(grouped_ ? 1 : spec.block_size),
        width_(max_block_width(spec)),
        prox_(detail::ProxSpec{spec.penalty, spec.lambda,
                               spec.elastic_net_l1, spec.elastic_net_l2}),
        block_(dataset, rows, comm.rank()),
        rows_(rows),
        sampler_(n_, mu_, spec.seed),
        group_rng_(spec.seed),
        z_(n_, 0.0),
        y_(accelerated_ ? n_ : 0, 0.0),
        z_img_(block_.local_rows()),
        y_img_(accelerated_ ? block_.local_rows() : 0, 0.0),
        q_(std::ceil(static_cast<double>(n_) / static_cast<double>(mu_))),
        theta_(static_cast<double>(mu_) / static_cast<double>(n_)),
        theta_in_(spec.unroll_depth() + 1),
        offset_(spec.unroll_depth() + 1),
        r_(width_),
        u_(grouped_ ? width_ : 0),
        gjj_(width_, width_),
        x_scratch_(accelerated_ ? n_ : 0),
        res_scratch_(accelerated_ ? block_.local_rows() : 0) {
    // Warm start: z = x0, y = 0 (so x = θ²·y + z = x0), z̃ = A·x0 − b.
    if (!spec_.x0.empty()) {
      z_ = spec_.x0;
      // The local rows' CSR kernel, read from the dataset's rows: only
      // warm-started solves pay for the temporary slice.
      dataset.a.row_slice(rows.begin(comm.rank()), rows.end(comm.rank()))
          .spmv(z_, z_img_);
      for (std::size_t i = 0; i < z_img_.size(); ++i)
        z_img_[i] -= block_.labels()[i];
    } else {
      for (std::size_t i = 0; i < z_img_.size(); ++i)
        z_img_[i] = -block_.labels()[i];
    }
    init_grouping(rows_);
    init_gram_cache(n_, spec_.unroll_depth() * width_,
                    [&](std::span<const std::size_t> cols, la::Workspace& ws) {
                      return block_.view_columns(cols, ws);
                    });
    // Flat pending-update table + touched list (replaces a per-iteration
    // map): pending[coord] accumulates this round's deferred updates and
    // is restored to all-zero via `touched` at the end, so the O(n) table
    // is paid once, not per round.  The slot never grows past n, so the
    // span stays valid for the engine's lifetime.
    pending_ = ws_.doubles(kSlotPending, n_);
    const std::size_t k_max = spec_.unroll_depth() * width_;
    ws_.doubles(kSlotDelta, k_max);
    touched_.reserve(k_max);
    step_members_.resize(k_max);
    z_steps_.resize(k_max);
    y_steps_.resize(accelerated_ ? k_max : 0);
    detail::presize_round_workspace(round_ws_, kSlotIdx, k_max);
  }

 private:
  // Workspace slots (indices pool / doubles pool are independent).
  enum : std::size_t { kSlotIdx = 0 };
  enum : std::size_t { kSlotDelta = 0, kSlotPending = 1 };

  /// The current iterate x: z itself in plain mode, else θ²·y + z formed
  /// in x_scratch_.
  std::span<const double> current_x() {
    if (!accelerated_) return z_;
    const double t2 = theta_ * theta_;
    for (std::size_t j = 0; j < n_; ++j) x_scratch_[j] = t2 * y_[j] + z_[j];
    return x_scratch_;
  }

  double penalty_value(std::span<const double> x) const {
    if (grouped_) {
      const GroupStructure& groups = spec_.groups;
      double penalty = 0.0;
      for (std::size_t g = 0; g < groups.num_groups(); ++g) {
        const std::size_t begin = groups.offsets[g];
        penalty += la::nrm2(x.subspan(begin, groups.offsets[g + 1] - begin));
      }
      return spec_.lambda * penalty;
    }
    switch (spec_.penalty) {
      case Penalty::kLasso:
        return spec_.lambda * la::asum(x);
      case Penalty::kElasticNet:
        return spec_.lambda * (spec_.elastic_net_l1 * la::asum(x) +
                               spec_.elastic_net_l2 * la::nrm2_squared(x));
    }
    return 0.0;
  }

  /// The current residual image: z̃ itself in plain mode, else
  /// θ²·ỹ + z̃ formed in res_scratch_.
  std::span<const double> current_residual() {
    if (!accelerated_) return z_img_;
    const double t2 = theta_ * theta_;
    for (std::size_t i = 0; i < res_scratch_.size(); ++i)
      res_scratch_[i] = t2 * y_img_[i] + z_img_[i];
    return res_scratch_;
  }

  void record_trace_point(std::size_t iteration) override {
    const dist::CommStats snapshot = comm_.stats();
    // Trace instrumentation: runs only at user-requested trace points,
    // outside the round plane, and restores the comm stats it perturbs.
    const double total_sq = grouped_norm_allreduce(current_residual());
    const double penalty = penalty_value(current_x());
    comm_.set_stats(snapshot);
    push_trace_point(iteration, 0.5 * total_sq + penalty, snapshot);
  }

  // --- Round-objective piggyback (kObjective trailer section). ---------
  // The residual norm splits over the row partition, so the local partial
  // rides the round message; the (replicated) penalty is evaluated at
  // pack time and stashed, keeping the criterion's objective consistent
  // with the iterate that produced the partial.
  bool has_round_objective() const override { return true; }

  void write_round_objective(dist::RoundMessage& msg) override {
    pending_penalty_ = penalty_value(current_x());
    comm_.add_flops(2 * z_img_.size());
    comm_.add_replicated_flops(2 * n_);
    fold_norm_squared(msg, dist::RoundSection::kObjective,
                      current_residual());
  }

  double objective_from_partial(double reduced_partial) override {
    return 0.5 * reduced_partial + pending_penalty_;
  }

  /// Draws the round's s_eff blocks (seed-replicated) into idx_, block t
  /// at [offset_[t], offset_[t + 1]).
  void draw_blocks(std::size_t s_eff) {
    offset_[0] = 0;
    if (!grouped_) {
      for (std::size_t t = 0; t < s_eff; ++t) offset_[t + 1] = (t + 1) * mu_;
      idx_ = round_ws_.indices(kSlotIdx, s_eff * mu_);
      for (std::size_t t = 0; t < s_eff; ++t)
        sampler_.next_into(idx_.subspan(t * mu_, mu_));
      return;
    }
    // Group Lasso: one whole group per block, drawn with replacement.
    // Groups vary in size, so the batch is trimmed to its drawn length.
    const GroupStructure& groups = spec_.groups;
    idx_ = round_ws_.indices(kSlotIdx, s_eff * width_);
    for (std::size_t t = 0; t < s_eff; ++t) {
      const auto g =
          static_cast<std::size_t>(group_rng_.next_below(groups.num_groups()));
      const std::size_t begin = groups.offsets[g];
      offset_[t + 1] = offset_[t] + (groups.offsets[g + 1] - begin);
      for (std::size_t c = offset_[t]; c < offset_[t + 1]; ++c)
        idx_[c] = begin + (c - offset_[t]);
    }
    idx_ = idx_.first(offset_[s_eff]);
  }

  void pack_round(std::size_t s_eff, dist::RoundMessage& msg) override {
    // --- Sampling: s_eff blocks, viewed zero-copy in the block's
    //     resident column store. ---
    draw_blocks(s_eff);
    const std::size_t k = offset_[s_eff];  // members of the sampled batch
    big_ = block_.view_columns(idx_, round_ws_);

    // --- The ONE message of this outer round:
    //     [upper(G) | Yᵀỹ | Yᵀz̃]   (plain mode: [upper(G) | Yᵀr̃]).
    //     One kernel call per section writes the partial of every OWNED
    //     global row chunk, folded through the grouping's tree — the
    //     per-chunk sums are identical on every rank count, so the folded
    //     payload is too. ---
    const std::size_t k_dots = accelerated_ ? k : 0;
    msg.layout(detail::triangle_size(k), k, k_dots);
    fold_gram(msg, big_, idx_);

    const std::size_t sections = accelerated_ ? 2 : 1;
    const std::array<std::span<const double>, 2> rhs{
        std::span<const double>(y_img_), std::span<const double>(z_img_)};
    const std::span<const std::span<const double>> rhs_span(
        rhs.data() + (accelerated_ ? 0 : 1), sections);
    msg.fold_owned(dist::RoundSection::kDots1, dist::RoundSection::kDots2,
                   [&](std::span<const std::size_t> bounds,
                       std::span<double> staged) {
                     la::sampled_dots_range(big_, rhs_span, bounds, staged);
                   });
    comm_.add_flops(sections * big_.dot_all_flops());
  }

  void apply_round(std::size_t s_eff,
                   const dist::RoundMessage& msg) override {
    // θ entering inner iteration t (θ_{sk+t} in paper indexing, t
    // 0-based): a pure recurrence on θ, independent of the reduced sums.
    theta_in_[0] = theta_;
    for (std::size_t t = 0; t < s_eff; ++t)
      theta_in_[t + 1] = detail::theta_next(theta_in_[t]);

    const std::size_t k = offset_[s_eff];
    const detail::PackedUpper gram(
        msg.section(dist::RoundSection::kGram).data(), k);
    const std::span<const double> dots1 =
        msg.section(dist::RoundSection::kDots1);
    const std::span<const double> dots2 =
        msg.section(dist::RoundSection::kDots2);

    // --- Redundant inner iterations (equations (3)–(5)), replicated. ---
    // Deferred per-iteration solution updates Δz (one block each, flat).
    const std::span<double> delta = ws_.doubles(kSlotDelta, k);
    la::fill(delta, 0.0);
    touched_.clear();

    for (std::size_t j = 0; j < s_eff; ++j) {
      const std::size_t oj = offset_[j];
      const std::size_t size = offset_[j + 1] - oj;

      // Cheap v == 0 pre-check: a PSD block is zero iff its diagonal is
      // zero, and the allreduced Gram diagonal holds the *global* squared
      // column norms, so every rank takes the same branch.  (A rank's
      // local column norms cannot decide this: a locally empty column may
      // be nonzero on a sibling rank.)
      bool empty_block = true;
      for (std::size_t a = 0; a < size; ++a) {
        if (gram(oj + a, oj + a) != 0.0) {
          empty_block = false;
          break;
        }
      }
      if (empty_block) continue;  // Δz_j stays 0, no eigensolve needed

      // Diagonal block of G is A_jᵀA_j; its largest eigenvalue is the
      // block Lipschitz constant (Algorithm 2 line 14).  The eigensolve
      // rotates gjj_ in place, so it is refilled before every call.
      gjj_.reshape(size, size);
      for (std::size_t a = 0; a < size; ++a)
        for (std::size_t b = 0; b < size; ++b)
          gjj_(a, b) = gram(oj + a, oj + b);
      const double v = la::largest_eigenvalue_psd(gjj_);
      comm_.add_replicated_flops(detail::eig_flops(size));
      if (v == 0.0) continue;  // empty block: Δz_j stays 0

      const double theta_prev = theta_in_[j];
      const double eta =
          accelerated_ ? 1.0 / (q_ * theta_prev * v) : 1.0 / v;
      const double t2 = theta_prev * theta_prev;

      // r_j per equation (3) (accelerated) or its plain analogue.
      for (std::size_t a = 0; a < size; ++a) {
        r_[a] = accelerated_ ? t2 * dots1[oj + a] + dots2[oj + a]
                             : dots1[oj + a];
      }
      for (std::size_t t = 0; t < j; ++t) {
        // Coefficient of the G_{jt}·Δz_t correction:
        //   accelerated: −(θ²_{sk+j−1}·(1−qθ_{sk+t−1})/θ²_{sk+t−1} − 1)
        //   plain:       +1   (residual accumulates the raw updates)
        double c = 1.0;
        if (accelerated_) {
          const double coeff_t =
              detail::acceleration_coefficient(theta_in_[t], q_);
          c = -(t2 * coeff_t - 1.0);
        }
        const std::size_t ot = offset_[t];
        const std::size_t tsize = offset_[t + 1] - ot;
        for (std::size_t a = 0; a < size; ++a) {
          double acc = 0.0;
          for (std::size_t b = 0; b < tsize; ++b)
            acc += gram(oj + a, ot + b) * delta[ot + b];
          r_[a] += c * acc;
        }
        comm_.add_replicated_flops(2 * size * tsize);
      }

      // Equations (4)–(5): proximal step against the deferred state
      // z + pending.  Group Lasso's prox is joint over the block:
      // u := GST(base − η·r, λη), formed before the per-coordinate pass.
      if (grouped_) {
        for (std::size_t a = 0; a < size; ++a) {
          const std::size_t coord = idx_[oj + a];
          u_[a] = z_[coord] + pending_[coord] - eta * r_[a];
        }
        group_soft_threshold(std::span<double>(u_.data(), size),
                             spec_.lambda * eta);
      }
      for (std::size_t a = 0; a < size; ++a) {
        const std::size_t coord = idx_[oj + a];
        const double base_value = z_[coord] + pending_[coord];
        const double d =
            grouped_ ? u_[a] - base_value
                     : prox_.apply(base_value - eta * r_[a], eta) - base_value;
        delta[oj + a] = d;
        if (d != 0.0) {
          pending_[coord] += d;
          // sa-lint: allow(alloc): reserved to unroll_depth*width at setup
          touched_.push_back(coord);
        }
      }
    }

    // --- Deferred batch updates (equations (6)–(9)). ---
    // The replicated coordinates member by member; each image then takes
    // the round's steps in one batch update, in member order.  A member
    // is listed iff its d ≠ 0, so a y-image step −coeff_t·d that rounds
    // to ±0.0 is still applied, as a per-member update would.
    std::size_t steps = 0;
    for (std::size_t t = 0; t < s_eff; ++t) {
      const double coeff_t =
          accelerated_
              ? detail::acceleration_coefficient(theta_in_[t], q_)
              : 0.0;
      for (std::size_t m = offset_[t]; m < offset_[t + 1]; ++m) {
        const double d = delta[m];
        if (d == 0.0) continue;
        const std::size_t coord = idx_[m];
        step_members_[steps] = m;
        z_[coord] += d;
        z_steps_[steps] = d;
        comm_.add_flops(2 * big_.member_nnz(m));
        if (accelerated_) {
          y_[coord] -= coeff_t * d;
          y_steps_[steps] = -coeff_t * d;
          comm_.add_flops(2 * big_.member_nnz(m));
        }
        ++steps;
      }
    }
    const std::span<const std::size_t> members(step_members_.data(), steps);
    big_.add_combination_to(members,
                            std::span<const double>(z_steps_.data(), steps),
                            z_img_);
    if (accelerated_)
      big_.add_combination_to(
          members, std::span<const double>(y_steps_.data(), steps), y_img_);
    // Restore the pending table to all-zero for the next round.
    for (const std::size_t coord : touched_) pending_[coord] = 0.0;

    theta_ = theta_in_[s_eff];
  }

  void assemble(SolveResult& out) override {
    const std::span<const double> x = current_x();
    out.x.assign(x.begin(), x.end());
  }

  // --- Snapshot/resume: the replicated iterates (z, y, θ), the
  // partitioned residual images gathered to full length (recomputing
  // them from z on restore would round differently than the incremental
  // updates — bitwise resume requires the accumulated bits), the pending
  // table (all-zero between rounds by invariant, serialized for
  // robustness), and the sampler position.  Plain mode has no (y, ỹ) and
  // writes no lasso/y or lasso/y_img section.  Group Lasso's whole state
  // is plain mode's (z, z̃) plus the group generator, under its own
  // names. ---
  void save_engine_state(io::SnapshotWriter& out) override {
    if (grouped_) {
      out.add_doubles("group-lasso/x", z_);
      out.add_doubles("group-lasso/res",
                      gather_full(z_img_, rows_.begin(comm_.rank()),
                                  rows_.total()));
      out.add_u64("group-lasso/rng", group_rng_.state());
      return;
    }
    out.add_doubles("lasso/z", z_);
    if (accelerated_) out.add_doubles("lasso/y", y_);
    out.add_double("lasso/theta", theta_);
    out.add_doubles("lasso/z_img",
                    gather_full(z_img_, rows_.begin(comm_.rank()),
                                rows_.total()));
    if (accelerated_)
      out.add_doubles("lasso/y_img",
                      gather_full(y_img_, rows_.begin(comm_.rank()),
                                  rows_.total()));
    out.add_doubles("lasso/pending", pending_);
    out.add_u64("lasso/sampler_rng", sampler_.rng_state());
    out.begin_u64s("lasso/sampler_perm", n_);
    for (const std::size_t v : sampler_.permutation()) out.push_u64(v);
  }

  void load_engine_state(const io::SnapshotReader& in) override {
    const std::size_t begin = rows_.begin(comm_.rank());
    if (grouped_) {
      const std::span<const double> x = in.doubles("group-lasso/x", n_);
      const std::span<const double> res =
          in.doubles("group-lasso/res", rows_.total());
      const std::uint64_t rng = in.word("group-lasso/rng");
      la::copy(x, z_);
      la::copy(res.subspan(begin, z_img_.size()), z_img_);
      group_rng_.set_state(rng);
      return;
    }
    const std::span<const double> z = in.doubles("lasso/z", n_);
    const std::span<const double> y =
        accelerated_ ? in.doubles("lasso/y", n_) : std::span<const double>();
    const double theta = in.real("lasso/theta");
    const std::span<const double> z_img =
        in.doubles("lasso/z_img", rows_.total());
    const std::span<const double> y_img =
        accelerated_ ? in.doubles("lasso/y_img", rows_.total())
                     : std::span<const double>();
    const std::span<const double> pending =
        in.doubles("lasso/pending", n_);
    const std::uint64_t rng = in.word("lasso/sampler_rng");
    const std::span<const std::uint64_t> perm =
        in.u64s("lasso/sampler_perm", n_);
    const std::vector<std::size_t> perm_indices(perm.begin(), perm.end());
    sampler_.restore(rng, perm_indices);  // validates before mutating
    la::copy(z, z_);
    la::copy(y, y_);
    theta_ = theta;
    la::copy(z_img.subspan(begin, z_img_.size()), z_img_);
    if (accelerated_) la::copy(y_img.subspan(begin, y_img_.size()), y_img_);
    la::copy(pending, pending_);
  }

  const std::size_t n_;
  const bool grouped_;      // Group Lasso family (else Lasso/elastic net)
  const bool accelerated_;  // spec.accelerated, never for Group Lasso
  const std::size_t mu_;    // coordinates per Lasso block (1 when grouped)
  const std::size_t width_;  // widest block: µ, or the largest group
  const detail::ProxSpec prox_;
  RowBlock block_;
  const data::Partition rows_;
  data::CoordinateSampler sampler_;  // Lasso block draws
  data::SplitMix64 group_rng_;       // Group Lasso block draws

  // Replicated / partitioned state exactly as in Algorithm 1: x_h =
  // θ_h²·y_h + z_h with partitioned images ỹ = A·y, z̃ = A·z − b.  Plain
  // mode uses (z, z̃) as (x, r̃) and leaves (y, ỹ) empty.
  std::vector<double> z_;
  std::vector<double> y_;
  std::vector<double> z_img_;
  std::vector<double> y_img_;
  const double q_;
  double theta_;

  // s-step workspace.  The arena slots (sampled indices, deferred deltas,
  // the pending-update table) and the fixed-size scratch below are sized
  // at setup for s blocks of the widest width and reused verbatim
  // afterwards; the round message itself lives in EngineBase's arena.
  // The steady-state loop performs no heap allocation.
  la::Workspace ws_;
  std::vector<double> theta_in_;
  std::vector<std::size_t> offset_;  // block t is [offset_[t], offset_[t+1])
  std::vector<double> r_;
  std::vector<double> u_;  // Group Lasso's joint prox argument
  la::DenseMatrix gjj_;
  std::span<double> pending_;
  std::vector<std::size_t> touched_;
  // The round's batch update: the members with d ≠ 0 and their steps on
  // z̃ and (accelerated) ỹ.
  std::vector<std::size_t> step_members_;
  std::vector<double> z_steps_;
  std::vector<double> y_steps_;

  // Pack-to-apply round state: the sampled indices and the zero-copy view
  // over them, backed by round_ws_ (the view descriptors live in its
  // named pools).
  la::Workspace round_ws_;
  std::span<std::size_t> idx_;
  la::BatchView big_;
  double pending_penalty_ = 0.0;

  // The accelerated iterate and residual for the objective, reused across
  // every evaluation (no fresh vectors); plain mode reads z and z̃ in
  // place and leaves both empty.
  std::vector<double> x_scratch_;
  std::vector<double> res_scratch_;
};

}  // namespace

namespace detail {

std::unique_ptr<Solver> make_lasso_engine(dist::Communicator& comm,
                                          const data::Dataset& dataset,
                                          const data::Partition& rows,
                                          const SolverSpec& spec) {
  spec.validate(dataset);
  return std::make_unique<LassoEngine>(comm, dataset, rows, spec);
}

}  // namespace detail

}  // namespace sa::core
