// The Lasso/elastic-net family engine (paper Algorithms 1 and 2).
//
// One class implements CD/BCD/accCD/accBCD *and* their
// synchronization-avoiding variants: a communication round samples
// s_eff·µ coordinates, packs the ONE fused RoundMessage
// [upper(G) | Yᵀỹ | Yᵀz̃ | trailer], and replays s_eff redundant inner
// iterations — with s_eff == 1 this is exactly Algorithm 1, so the
// classical solvers are this engine at unrolling depth 1 (and inherit the
// zero-copy la::BatchView + la::Workspace pipeline for free).
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

class LassoEngine final : public detail::EngineBase {
 public:
  LassoEngine(dist::Communicator& comm, const data::Dataset& dataset,
              const data::Partition& rows, const SolverSpec& spec)
      : EngineBase(comm, spec),
        n_(dataset.num_features()),
        mu_(spec.block_size),
        prox_(detail::ProxSpec{spec.penalty, spec.lambda,
                               spec.elastic_net_l1, spec.elastic_net_l2}),
        block_(dataset, rows, comm.rank()),
        rows_(rows),
        sampler_(n_, mu_, spec.seed),
        z_(n_, 0.0),
        y_(n_, 0.0),
        z_img_(block_.local_rows()),
        y_img_(block_.local_rows(), 0.0),
        q_(std::ceil(static_cast<double>(n_) / static_cast<double>(mu_))),
        theta_(static_cast<double>(mu_) / static_cast<double>(n_)),
        theta_in_(spec.unroll_depth() + 1),
        r_(mu_),
        gjj_(mu_, mu_),
        x_scratch_(n_),
        res_scratch_(block_.local_rows()) {
    // Warm start: z = x0, y = 0 (so x = θ²·y + z = x0), z̃ = A·x0 − b.
    if (!spec_.x0.empty()) {
      z_ = spec_.x0;
      block_.matrix().spmv(z_, z_img_);
      for (std::size_t i = 0; i < z_img_.size(); ++i)
        z_img_[i] -= block_.labels()[i];
    } else {
      for (std::size_t i = 0; i < z_img_.size(); ++i)
        z_img_[i] = -block_.labels()[i];
    }
    init_grouping(rows_);
    eig_scratch_.reserve(mu_);
    // Flat pending-update table + touched list (replaces a per-iteration
    // map): pending[coord] accumulates this round's deferred updates and
    // is restored to all-zero via `touched` at the end, so the O(n) table
    // is paid once, not per round.  The slot never grows past n, so the
    // span stays valid for the engine's lifetime.
    pending_ = ws_.doubles(kSlotPending, n_);
    touched_.reserve(spec_.unroll_depth() * mu_);
    detail::presize_round_workspace(round_ws_, kSlotIdx,
                                    spec_.unroll_depth() * mu_);
  }

 private:
  // Workspace slots (indices pool / doubles pool are independent).
  enum : std::size_t { kSlotIdx = 0 };
  enum : std::size_t { kSlotDelta = 0, kSlotPending = 1 };

  void write_current_x(std::span<double> out) const {
    if (!spec_.accelerated) {
      la::copy(z_, out);
      return;
    }
    const double t2 = theta_ * theta_;
    for (std::size_t j = 0; j < n_; ++j) out[j] = t2 * y_[j] + z_[j];
  }

  double penalty_value(std::span<const double> x) const {
    switch (spec_.penalty) {
      case Penalty::kLasso:
        return spec_.lambda * la::asum(x);
      case Penalty::kElasticNet:
        return spec_.lambda * (spec_.elastic_net_l1 * la::asum(x) +
                               spec_.elastic_net_l2 * la::nrm2_squared(x));
    }
    return 0.0;
  }

  /// Writes the current residual image (θ²·ỹ + z̃, or z̃ in plain mode)
  /// into res_scratch_.
  void write_current_residual() {
    const double t2 = theta_ * theta_;
    for (std::size_t i = 0; i < res_scratch_.size(); ++i)
      res_scratch_[i] =
          spec_.accelerated ? t2 * y_img_[i] + z_img_[i] : z_img_[i];
  }

  void record_trace_point(std::size_t iteration) override {
    const dist::CommStats snapshot = comm_.stats();
    write_current_x(x_scratch_);
    write_current_residual();
    // Trace instrumentation: runs only at user-requested trace points,
    // outside the round plane, and restores the comm stats it perturbs.
    const double total_sq = grouped_norm_allreduce(res_scratch_);
    const double penalty = penalty_value(x_scratch_);
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
    write_current_x(x_scratch_);
    pending_penalty_ = penalty_value(x_scratch_);
    write_current_residual();
    comm_.add_flops(2 * res_scratch_.size());
    comm_.add_replicated_flops(2 * n_);
    fold_norm_squared(msg, dist::RoundSection::kObjective, res_scratch_);
  }

  double objective_from_partial(double reduced_partial) override {
    return 0.5 * reduced_partial + pending_penalty_;
  }

  void pack_round(std::size_t s_eff, dist::RoundMessage& msg) override {
    const std::size_t k = s_eff * mu_;  // members of the sampled batch

    // --- Sampling: s_eff blocks of µ coordinates (seed-replicated),
    //     viewed zero-copy in the resident CSC storage. ---
    idx_ = round_ws_.indices(kSlotIdx, k);
    for (std::size_t t = 0; t < s_eff; ++t)
      sampler_.next_into(idx_.subspan(t * mu_, mu_));
    big_ = block_.view_columns(idx_, round_ws_);

    // --- The ONE message of this outer round:
    //     [upper(G) | Yᵀỹ | Yᵀz̃]   (plain mode: [upper(G) | Yᵀr̃]).
    //     One kernel call per section writes the partial of every OWNED
    //     global row chunk, folded through the grouping's tree — the
    //     per-chunk sums are identical on every rank count, so the folded
    //     payload is too. ---
    const std::size_t k_dots = spec_.accelerated ? k : 0;
    msg.layout(detail::triangle_size(k), k, k_dots);
    msg.fold_owned(dist::RoundSection::kGram, dist::RoundSection::kGram,
                   [&](std::span<const std::size_t> bounds,
                       std::span<double> staged) {
                     la::sampled_gram_range(big_, bounds, staged);
                   });
    comm_.add_flops(big_.gram_flops());

    const std::size_t sections = spec_.accelerated ? 2 : 1;
    const std::array<std::span<const double>, 2> rhs{
        std::span<const double>(y_img_), std::span<const double>(z_img_)};
    const std::span<const std::span<const double>> rhs_span(
        rhs.data() + (spec_.accelerated ? 0 : 1), sections);
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

    const std::size_t k = s_eff * mu_;
    const detail::PackedUpper gram(
        msg.section(dist::RoundSection::kGram).data(), k);
    const std::span<const double> dots1 =
        msg.section(dist::RoundSection::kDots1);
    const std::span<const double> dots2 =
        msg.section(dist::RoundSection::kDots2);

    // --- Redundant inner iterations (equations (3)–(5)), replicated. ---
    // Deferred per-iteration solution updates Δz (µ each, flat).
    const std::span<double> delta = ws_.doubles(kSlotDelta, k);
    la::fill(delta, 0.0);
    touched_.clear();

    for (std::size_t j = 0; j < s_eff; ++j) {
      // Cheap v == 0 pre-check: a PSD block is zero iff its diagonal is
      // zero, and the allreduced Gram diagonal holds the *global* squared
      // column norms, so every rank takes the same branch.  (The per-rank
      // RowBlock::col_norms_squared() partials cannot decide this:
      // a locally empty column may be nonzero on a sibling rank.)
      bool empty_block = true;
      for (std::size_t a = 0; a < mu_; ++a) {
        if (gram(j * mu_ + a, j * mu_ + a) != 0.0) {
          empty_block = false;
          break;
        }
      }
      if (empty_block) continue;  // Δz_j stays 0, no eigensolve needed

      // Diagonal µ×µ block of G is A_jᵀA_j; its largest eigenvalue is the
      // block Lipschitz constant (Algorithm 2 line 14).
      for (std::size_t a = 0; a < mu_; ++a)
        for (std::size_t b = 0; b < mu_; ++b)
          gjj_(a, b) = gram(j * mu_ + a, j * mu_ + b);
      const double v = la::largest_eigenvalue_psd(gjj_, eig_scratch_);
      comm_.add_replicated_flops(detail::eig_flops(mu_));
      if (v == 0.0) continue;  // empty block: Δz_j stays 0

      const double theta_prev = theta_in_[j];
      const double eta =
          spec_.accelerated ? 1.0 / (q_ * theta_prev * v) : 1.0 / v;
      const double t2 = theta_prev * theta_prev;

      // r_j per equation (3) (accelerated) or its plain analogue.
      for (std::size_t a = 0; a < mu_; ++a) {
        r_[a] = spec_.accelerated
                    ? t2 * dots1[j * mu_ + a] + dots2[j * mu_ + a]
                    : dots1[j * mu_ + a];
      }
      for (std::size_t t = 0; t < j; ++t) {
        // Coefficient of the G_{jt}·Δz_t correction:
        //   accelerated: −(θ²_{sk+j−1}·(1−qθ_{sk+t−1})/θ²_{sk+t−1} − 1)
        //   plain:       +1   (residual accumulates the raw updates)
        double c = 1.0;
        if (spec_.accelerated) {
          const double coeff_t =
              detail::acceleration_coefficient(theta_in_[t], q_);
          c = -(t2 * coeff_t - 1.0);
        }
        for (std::size_t a = 0; a < mu_; ++a) {
          double acc = 0.0;
          for (std::size_t b = 0; b < mu_; ++b)
            acc += gram(j * mu_ + a, t * mu_ + b) * delta[t * mu_ + b];
          r_[a] += c * acc;
        }
        comm_.add_replicated_flops(2 * mu_ * mu_);
      }

      // Equations (4)–(5): proximal step against the deferred state.
      for (std::size_t a = 0; a < mu_; ++a) {
        const std::size_t coord = idx_[j * mu_ + a];
        const double base_value = z_[coord] + pending_[coord];
        const double g = base_value - eta * r_[a];
        const double d = prox_.apply(g, eta) - base_value;
        delta[j * mu_ + a] = d;
        if (d != 0.0) {
          pending_[coord] += d;
          // sa-lint: allow(alloc): reserved to unroll_depth*mu at setup
          touched_.push_back(coord);
        }
      }
    }

    // --- Deferred batch updates (equations (6)–(9)). ---
    for (std::size_t t = 0; t < s_eff; ++t) {
      const double coeff_t =
          spec_.accelerated
              ? detail::acceleration_coefficient(theta_in_[t], q_)
              : 0.0;
      for (std::size_t a = 0; a < mu_; ++a) {
        const double d = delta[t * mu_ + a];
        if (d == 0.0) continue;
        const std::size_t coord = idx_[t * mu_ + a];
        z_[coord] += d;
        big_.add_scaled_to(t * mu_ + a, d, z_img_);
        comm_.add_flops(2 * big_.member_nnz(t * mu_ + a));
        if (spec_.accelerated) {
          y_[coord] -= coeff_t * d;
          big_.add_scaled_to(t * mu_ + a, -coeff_t * d, y_img_);
          comm_.add_flops(2 * big_.member_nnz(t * mu_ + a));
        }
      }
    }
    // Restore the pending table to all-zero for the next round.
    for (const std::size_t coord : touched_) pending_[coord] = 0.0;

    theta_ = theta_in_[s_eff];
  }

  void assemble(SolveResult& out) override {
    out.x.resize(n_);
    write_current_x(out.x);
  }

  // --- Snapshot/resume: the replicated iterates (z, y, θ), the
  // partitioned residual images gathered to full length (recomputing
  // them from z on restore would round differently than the incremental
  // updates — bitwise resume requires the accumulated bits), the pending
  // table (all-zero between rounds by invariant, serialized for
  // robustness), and the sampler position. ---
  void save_engine_state(io::SnapshotWriter& out) override {
    out.add_doubles("lasso/z", z_);
    out.add_doubles("lasso/y", y_);
    out.add_double("lasso/theta", theta_);
    out.add_doubles("lasso/z_img",
                    gather_full(z_img_, rows_.begin(comm_.rank()),
                                rows_.total()));
    out.add_doubles("lasso/y_img",
                    gather_full(y_img_, rows_.begin(comm_.rank()),
                                rows_.total()));
    out.add_doubles("lasso/pending", pending_);
    out.add_u64("lasso/sampler_rng", sampler_.rng_state());
    out.begin_u64s("lasso/sampler_perm", n_);
    for (const std::size_t v : sampler_.permutation()) out.push_u64(v);
  }

  void load_engine_state(const io::SnapshotReader& in) override {
    const std::span<const double> z = in.doubles("lasso/z", n_);
    const std::span<const double> y = in.doubles("lasso/y", n_);
    const double theta = in.real("lasso/theta");
    const std::span<const double> z_img =
        in.doubles("lasso/z_img", rows_.total());
    const std::span<const double> y_img =
        in.doubles("lasso/y_img", rows_.total());
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
    const std::size_t begin = rows_.begin(comm_.rank());
    la::copy(z_img.subspan(begin, z_img_.size()), z_img_);
    la::copy(y_img.subspan(begin, y_img_.size()), y_img_);
    la::copy(pending, pending_);
  }

  const std::size_t n_;
  const std::size_t mu_;
  const detail::ProxSpec prox_;
  RowBlock block_;
  const data::Partition rows_;
  data::CoordinateSampler sampler_;

  // Replicated / partitioned state exactly as in Algorithm 1: x_h =
  // θ_h²·y_h + z_h with partitioned images ỹ = A·y, z̃ = A·z − b.  Plain
  // mode uses (z, z̃) as (x, r̃) and ignores (y, ỹ).
  std::vector<double> z_;
  std::vector<double> y_;
  std::vector<double> z_img_;
  std::vector<double> y_img_;
  const double q_;
  double theta_;

  // s-step workspace.  The arena slots (sampled indices, deferred deltas,
  // the pending-update table) and the fixed-size scratch below are sized
  // by the first (largest) round and reused verbatim afterwards; the
  // round message itself lives in EngineBase's arena.  The steady-state
  // loop performs no heap allocation.
  la::Workspace ws_;
  std::vector<double> theta_in_;
  std::vector<double> r_;
  la::DenseMatrix gjj_;
  la::EigenScratch eig_scratch_;
  std::span<double> pending_;
  std::vector<std::size_t> touched_;

  // Pack-to-apply round state: the sampled indices and the zero-copy view
  // over them, backed by round_ws_ (the view descriptors live in its
  // named pools).
  la::Workspace round_ws_;
  std::span<std::size_t> idx_;
  la::BatchView big_;
  double pending_penalty_ = 0.0;

  // Trace scratch, reused across every trace point (no fresh vectors).
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
