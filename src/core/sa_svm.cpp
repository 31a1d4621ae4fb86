// The dual-CD SVM family engine (paper Algorithms 3 and 4): classical
// (s = 1) and synchronization-avoiding (s > 1) in one class.  A
// communication round samples s_eff data points, packs the ONE fused
// RoundMessage [upper(G) | Yᵀx | trailer], and replays the
// projected-Newton dual updates redundantly on every rank.  (The duality
// gap needs a full margins reduction, so gap-based stopping stays at
// trace points — the kObjective piggyback is left off for this family.)
#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.hpp"
#include "core/detail.hpp"
#include "core/engine.hpp"
#include "core/local_data.hpp"
#include "core/objective.hpp"
#include "data/rng.hpp"
#include "la/batch_view.hpp"
#include "la/vector_ops.hpp"
#include "la/workspace.hpp"

namespace sa::core {

namespace {

/// Projected-Newton dual update (Algorithm 3 lines 9–13): returns the step
/// θ_h for one coordinate with current value alpha_i, gradient g, curvature
/// eta, and box [0, ν].
double dual_step(double alpha_i, double g, double eta, double nu) {
  const double projected = std::min(std::max(alpha_i - g, 0.0), nu);
  if (projected == alpha_i) return 0.0;  // PG check: g̃ == 0, skip update
  return std::min(std::max(alpha_i - g / eta, 0.0), nu) - alpha_i;
}

class SvmEngine final : public detail::EngineBase {
 public:
  SvmEngine(dist::Communicator& comm, const data::Dataset& dataset,
            const data::Partition& cols, const SolverSpec& spec)
      : EngineBase(comm, spec),
        n_(dataset.num_features()),
        m_(dataset.num_points()),
        constants_(SvmConstants::make(spec.loss, spec.lambda)),
        block_(dataset, cols, comm.rank()),
        cols_(cols),
        rng_(spec.seed),
        alpha_(m_, 0.0),
        x_loc_(block_.local_cols(), 0.0),
        theta_(spec.unroll_depth()) {
    // The SVM reduces over the FEATURE axis (the primal slice is
    // column-partitioned), so the fixed grouping chunks columns.
    init_grouping(cols_);
    detail::presize_round_workspace(round_ws_, kSlotIdx,
                                    spec_.unroll_depth());
  }

 private:
  enum : std::size_t { kSlotIdx = 0 };  // index pool

  void record_trace_point(std::size_t iteration) override {
    const std::vector<double>& b = block_.labels();
    const dist::CommStats snapshot = comm_.stats();
    // Duality gap evaluation (instrumentation only): margins need the full
    // A·x.  Each rank contributes per-global-column-chunk partial
    // products — one CSR row walk emits every owned chunk's — folded
    // through the grouping's tree like a round payload (the
    // rank-count-invariant replacement for summing whole per-rank
    // partials).  The norm goes first: the margins span is valid only
    // until the next grouped sum.
    const double x_norm_sq = grouped_norm_allreduce(x_loc_);
    const std::span<const double> margins = grouped_sum(
        m_, [&](std::span<const std::size_t> bounds, std::size_t row_begin,
                std::size_t row_end, std::span<double> staged) {
          block_.matrix().spmv_col_chunks(x_loc_, bounds, row_begin, row_end,
                                          staged);
        });
    double hinge_sum = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      const double slack = std::max(0.0, 1.0 - b[i] * margins[i]);
      hinge_sum += (spec_.loss == SvmLoss::kL1) ? slack : slack * slack;
    }
    const double primal = 0.5 * x_norm_sq + spec_.lambda * hinge_sum;
    const double dual = la::sum(alpha_) - 0.5 * x_norm_sq -
                        0.5 * constants_.gamma * la::nrm2_squared(alpha_);
    comm_.set_stats(snapshot);
    push_trace_point(iteration, primal - dual, snapshot);
  }

  void pack_round(std::size_t s_eff, dist::RoundMessage& msg) override {
    // --- Sampling (seed-replicated, with replacement as in Algorithm 3).
    idx_ = round_ws_.indices(kSlotIdx, s_eff);
    for (std::size_t t = 0; t < s_eff; ++t)
      idx_[t] = static_cast<std::size_t>(rng_.next_below(m_));
    batch_ = block_.view_rows(idx_, round_ws_);

    // --- The ONE message: [upper(G) | Yᵀx], partials per OWNED global
    //     column chunk folded through the grouping's tree
    //     (rank-count-invariant reduction grouping). ---
    msg.layout(detail::triangle_size(s_eff), s_eff, 0);
    msg.fold_owned(dist::RoundSection::kGram, dist::RoundSection::kGram,
                   [&](std::span<const std::size_t> bounds,
                       std::span<double> staged) {
                     la::sampled_gram_range(batch_, bounds, staged);
                   });
    comm_.add_flops(batch_.gram_flops());

    const std::array<std::span<const double>, 1> rhs{
        std::span<const double>(x_loc_)};
    const std::span<const std::span<const double>> rhs_span(rhs);
    msg.fold_owned(dist::RoundSection::kDots1, dist::RoundSection::kDots2,
                   [&](std::span<const std::size_t> bounds,
                       std::span<double> staged) {
                     la::sampled_dots_range(batch_, rhs_span, bounds, staged);
                   });
    comm_.add_flops(batch_.dot_all_flops());
  }

  void apply_round(std::size_t s_eff,
                   const dist::RoundMessage& msg) override {
    // Reset the deferred-update table (the inner loop reads it before the
    // first write).
    std::fill(theta_.begin(), theta_.begin() + s_eff, 0.0);
    const std::vector<double>& b = block_.labels();
    const detail::PackedUpper gram(
        msg.section(dist::RoundSection::kGram).data(), s_eff);
    const std::span<const double> xdots =
        msg.section(dist::RoundSection::kDots1);

    // --- Redundant inner iterations (equations (14)–(15)), replicated.
    for (std::size_t j = 0; j < s_eff; ++j) {
      // η_j = G_jj + γ  (Algorithm 4 line 11: diag of G+γI).
      const double eta = gram(j, j) + constants_.gamma;

      // β_j per equation (14): α_i plus earlier deferred updates to the
      // same coordinate.
      double beta = alpha_[idx_[j]];
      for (std::size_t t = 0; t < j; ++t)
        if (idx_[t] == idx_[j]) beta += theta_[t];

      // g_j per equation (15): the cross terms use the off-diagonal Gram
      // entries  A_jA_tᵀ = G_jt.
      double g = b[idx_[j]] * xdots[j] - 1.0 + constants_.gamma * beta;
      for (std::size_t t = 0; t < j; ++t) {
        if (theta_[t] == 0.0) continue;
        g += theta_[t] * b[idx_[j]] * b[idx_[t]] * gram(j, t);
      }
      comm_.add_replicated_flops(4 * j);

      theta_[j] =
          (eta > 0.0) ? dual_step(beta, g, eta, constants_.nu) : 0.0;
    }

    // --- Deferred batch updates:  α += Σ θ_t e_{i_t},  x += Σ θ_t b_t A_tᵀ.
    for (std::size_t t = 0; t < s_eff; ++t) {
      if (theta_[t] == 0.0) continue;
      alpha_[idx_[t]] += theta_[t];
      batch_.add_scaled_to(t, theta_[t] * b[idx_[t]], x_loc_);
      comm_.add_flops(2 * batch_.member_nnz(t));
    }
  }

  void assemble(SolveResult& out) override {
    // Assemble the full primal vector: zero-extend the local slice, one
    // sum.
    out.x.assign(n_, 0.0);
    std::copy(x_loc_.begin(), x_loc_.end(),
              out.x.begin() + cols_.begin(comm_.rank()));
    // sa-lint: allow(collective): one-time assembly after the solve loop
    comm_.allreduce_sum(out.x);
    // Serial keeps a coordinate's −0.0 bit; multi-rank sums it with the
    // other ranks' +0.0 and gets +0.0.  Canonicalize so the assembled
    // solution is bitwise identical on every rank count.
    for (double& v : out.x) v += 0.0;
    out.alpha = alpha_;
  }

  // --- Snapshot/resume: the replicated dual iterate, the partitioned
  // primal slice gathered to full length (accumulated bits), and the
  // sample generator state. ---
  void save_engine_state(io::SnapshotWriter& out) override {
    out.add_doubles("svm/alpha", alpha_);
    out.add_doubles("svm/x", gather_full(x_loc_,
                                         cols_.begin(comm_.rank()),
                                         cols_.total()));
    out.add_u64("svm/rng", rng_.state());
  }

  void load_engine_state(const io::SnapshotReader& in) override {
    const std::span<const double> alpha = in.doubles("svm/alpha", m_);
    const std::span<const double> x = in.doubles("svm/x", cols_.total());
    const std::uint64_t rng = in.word("svm/rng");
    la::copy(alpha, alpha_);
    la::copy(x.subspan(cols_.begin(comm_.rank()), x_loc_.size()), x_loc_);
    rng_.set_state(rng);
  }

  const std::size_t n_;
  const std::size_t m_;
  const SvmConstants constants_;
  ColBlock block_;
  const data::Partition cols_;
  data::SplitMix64 rng_;

  std::vector<double> alpha_;  // dual iterate (replicated)
  std::vector<double> x_loc_;  // partitioned primal slice

  // s-step workspace: the θ table, sized by the first (largest) round and
  // reused — the steady-state loop performs no heap allocation.  The
  // round message lives in EngineBase's arena.
  std::vector<double> theta_;

  // Pack-to-apply round state: the sampled indices and the zero-copy row
  // view over them (descriptors live in round_ws_'s named pools).
  la::Workspace round_ws_;
  std::span<std::size_t> idx_;
  la::BatchView batch_;
};

}  // namespace

namespace detail {

std::unique_ptr<Solver> make_svm_engine(dist::Communicator& comm,
                                        const data::Dataset& dataset,
                                        const data::Partition& cols,
                                        const SolverSpec& spec) {
  spec.validate(dataset);
  return std::make_unique<SvmEngine>(comm, dataset, cols, spec);
}

}  // namespace detail

}  // namespace sa::core
