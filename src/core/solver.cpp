#include "core/solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/annotate.hpp"
#include "common/check.hpp"
#include "core/engine.hpp"
#include "io/snapshot.hpp"
#include "la/simd/simd.hpp"
#include "la/vector_ops.hpp"

namespace sa::core {

const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kMaxIterations:
      return "max-iterations";
    case StopReason::kObjectiveTolerance:
      return "objective-tolerance";
    case StopReason::kGapTolerance:
      return "gap-tolerance";
    case StopReason::kWallClockBudget:
      return "wall-clock-budget";
  }
  return "unknown";
}

SolverSpec SolverSpec::make(std::string algorithm_id) {
  SolverSpec spec;
  spec.algorithm = std::move(algorithm_id);
  return spec;
}

SolverSpec& SolverSpec::with_lambda(double v) {
  lambda = v;
  return *this;
}
SolverSpec& SolverSpec::with_penalty(Penalty p, double l1, double l2) {
  penalty = p;
  elastic_net_l1 = l1;
  elastic_net_l2 = l2;
  return *this;
}
SolverSpec& SolverSpec::with_block_size(std::size_t mu) {
  block_size = mu;
  return *this;
}
SolverSpec& SolverSpec::with_s(std::size_t depth) {
  s = depth;
  return *this;
}
SolverSpec& SolverSpec::with_acceleration(bool on) {
  accelerated = on;
  return *this;
}
SolverSpec& SolverSpec::with_seed(std::uint64_t v) {
  seed = v;
  return *this;
}
SolverSpec& SolverSpec::with_max_iterations(std::size_t h) {
  max_iterations = h;
  return *this;
}
SolverSpec& SolverSpec::with_trace_every(std::size_t cadence) {
  trace_every = cadence;
  return *this;
}
SolverSpec& SolverSpec::with_warm_start(std::vector<double> x) {
  x0 = std::move(x);
  return *this;
}
SolverSpec& SolverSpec::with_groups(GroupStructure g) {
  groups = std::move(g);
  return *this;
}
SolverSpec& SolverSpec::with_loss(SvmLoss l) {
  loss = l;
  return *this;
}
SolverSpec& SolverSpec::with_objective_tolerance(double tol) {
  objective_tolerance = tol;
  return *this;
}
SolverSpec& SolverSpec::with_gap_tolerance(double tol) {
  gap_tolerance = tol;
  return *this;
}
SolverSpec& SolverSpec::with_wall_clock_budget(double seconds) {
  wall_clock_budget = seconds;
  return *this;
}
SolverSpec& SolverSpec::with_checkpoint(std::string path,
                                        std::size_t every_n) {
  checkpoint_path = std::move(path);
  checkpoint_every = every_n;
  return *this;
}
SolverSpec& SolverSpec::with_reduction_chunk(std::size_t elements) {
  reduction_chunk = elements;
  return *this;
}

bool SolverSpec::is_sa() const {
  // sa-lint: allow(alloc): string_view::substr returns a view, no heap
  return std::string_view(algorithm).substr(0, 3) == "sa-";
}

SolverFamily SolverSpec::family() const {
  std::string_view id(algorithm);
  if (is_sa()) id.remove_prefix(3);
  if (id == "lasso") return SolverFamily::kLasso;
  if (id == "group-lasso") return SolverFamily::kGroupLasso;
  if (id == "svm") return SolverFamily::kSvm;
  return SolverFamily::kUnknown;
}

void SolverSpec::validate(const data::Dataset& dataset) const {
  const SolverFamily fam = family();
  SA_CHECK(fam != SolverFamily::kUnknown,
           "SolverSpec: unknown algorithm family for id '" + algorithm + "'");
  SA_CHECK(lambda >= 0.0, "SolverSpec: lambda must be >= 0");
  SA_CHECK(objective_tolerance >= 0.0,
           "SolverSpec: objective_tolerance must be >= 0");
  SA_CHECK(wall_clock_budget >= 0.0,
           "SolverSpec: wall_clock_budget must be >= 0");
  SA_CHECK((checkpoint_every > 0) == !checkpoint_path.empty(),
           "SolverSpec: set checkpoint_path and checkpoint_every together "
           "(or neither)");
  if (is_sa()) SA_CHECK(s >= 1, "SolverSpec: s must be >= 1");
  SA_CHECK(gap_tolerance == 0.0 || fam == SolverFamily::kSvm,
           "SolverSpec: gap_tolerance applies to the SVM family only");
  SA_CHECK(fam != SolverFamily::kSvm || trace_every > 0 ||
               (gap_tolerance == 0.0 && objective_tolerance == 0.0),
           "SolverSpec: SVM gap/objective tolerances are checked at trace "
           "points only (the duality gap needs a full margins reduction), "
           "so they need trace_every > 0");
  switch (fam) {
    case SolverFamily::kLasso:
      SA_CHECK(block_size >= 1 && block_size <= dataset.num_features(),
               "SolverSpec: block size must be in [1, n]");
      SA_CHECK(x0.empty() || x0.size() == dataset.num_features(),
               "SolverSpec: x0 must have length n");
      break;
    case SolverFamily::kGroupLasso:
      SA_CHECK(groups.num_groups() > 0 &&
                   groups.offsets.back() == dataset.num_features(),
               "SolverSpec: groups must cover all features");
      SA_CHECK(x0.empty() || x0.size() == dataset.num_features(),
               "SolverSpec: x0 must have length n");
      break;
    case SolverFamily::kSvm:
      SA_CHECK(dataset.has_binary_labels(),
               "SolverSpec: SVM labels must be exactly ±1");
      SA_CHECK(x0.empty(), "SolverSpec: the SVM family has no warm start");
      break;
    case SolverFamily::kUnknown:
      break;
  }
}

SolveResult Solver::run() {
  while (step(std::numeric_limits<std::size_t>::max()) > 0) {
  }
  return finish();
}

// Defaults keep third-party Solver implementations registered through
// SolverRegistry::add compiling: snapshots are opt-in for them, built-in
// for every EngineBase family.
void Solver::save_state(io::SnapshotWriter& /*out*/) {
  throw io::SnapshotError("snapshot: this solver type does not support "
                          "save_state");
}

void Solver::load_state(const io::SnapshotReader& /*in*/) {
  throw io::SnapshotError("snapshot: this solver type does not support "
                          "load_state");
}

std::vector<std::uint8_t> Solver::snapshot() {
  io::SnapshotWriter writer;
  save_state(writer);
  const std::span<const std::uint8_t> image = writer.finalize();
  return std::vector<std::uint8_t>(image.begin(), image.end());
}

void Solver::restore(std::span<const std::uint8_t> bytes) {
  load_state(io::SnapshotReader::parse(bytes));
}

void Solver::snapshot_to_file(const std::string& /*path*/) {
  throw io::SnapshotError("snapshot: this solver type does not support "
                          "snapshot_to_file");
}

void Solver::restore_from_file(const std::string& /*path*/) {
  throw io::SnapshotError("snapshot: this solver type does not support "
                          "restore_from_file");
}

namespace detail {

namespace {

/// The one definition of the objective-plateau predicate, shared by the
/// piggy-backed round path and the trace-granularity fallback.
bool objective_plateaued(double prev, double objective, double tolerance) {
  return std::abs(prev - objective) <=
         tolerance * std::max(1.0, std::abs(objective));
}

}  // namespace

EngineBase::EngineBase(dist::Communicator& comm, const SolverSpec& spec)
    : comm_(comm), spec_(spec) {}

std::size_t EngineBase::step(std::size_t iterations) {
  if (finished()) return 0;
  if (first_round_) {
    first_round_ = false;
    // Decide which trailer sections ride every round's message.  Sizes
    // are sticky for the whole solve so every rank lays out the same
    // schema; empty sections cost zero words.
    piggyback_objective_ =
        spec_.objective_tolerance > 0.0 && has_round_objective();
    piggyback_wall_ = spec_.wall_clock_budget > 0.0;
    msg_.set_trailer_sizes(piggyback_objective_ ? 1 : 0,
                           piggyback_wall_ ? 1 : 0);
    if (spec_.trace_every > 0) {
      record_trace_point(0);
      // Seed the objective-tolerance reference; criteria never fire on the
      // initial point, only at in-loop trace points.
      have_prev_objective_ = true;
      prev_objective_ = trace_.points.back().objective;
    }
  }
  std::size_t advanced = 0;
  while (!finished() && advanced < iterations) {
    const std::size_t s_eff = std::min(spec_.unroll_depth(),
                                       spec_.max_iterations - iterations_done_);
    run_round(s_eff);
    ++rounds_run_;
    iterations_done_ += s_eff;
    since_trace_ += s_eff;
    since_checkpoint_ += s_eff;
    advanced += s_eff;
    trace_.iterations_run = iterations_done_;
    if (spec_.trace_every > 0 && since_trace_ >= spec_.trace_every) {
      record_trace_point(iterations_done_);
      since_trace_ = 0;
      check_stops_after_round();
    }
    if (observer_) observer_(iterations_done_);
    if (spec_.checkpoint_every > 0 &&
        since_checkpoint_ >= spec_.checkpoint_every) {
      write_checkpoint();
      since_checkpoint_ = 0;
    }
  }
  return advanced;
}

void EngineBase::run_round(std::size_t s_eff) {
  SA_STEADY_STATE;
  // Pack: the engine lays out and writes the Gram/dot sections; the base
  // class fills the piggy-backed trailer.  The objective partial reflects
  // the iterate ENTERING this round (pack time), so the criterion it
  // feeds lags the iterate by one round — the price of zero extra
  // messages.
  //
  // The plateau rule compares samples spaced at least trace_every
  // iterations apart (round granularity when tracing is off): single-round
  // plateaus — one unlucky zero-update block — must not stop a classical
  // (s = 1) solve.  So it reads the objective only in the rounds decided
  // here, from state every rank holds identically (and the snapshot
  // carries); every other round leaves the kObjective word +0.0 and skips
  // the partial's O(n) work.
  const bool read_objective =
      piggyback_objective_ &&
      (!have_prev_round_objective_ ||
       iterations_done_ - prev_round_objective_iter_ >=
           std::max<std::size_t>(spec_.trace_every, 1));
  const EngineClock::time_point t_pack = EngineClock::now();
  pack_round(s_eff, msg_);
  if (read_objective)
    // Per-chunk objective partials, folded through the grouping's tree
    // like the Gram, so the summed partial is rank-count invariant.
    write_round_objective(msg_);
  if (piggyback_wall_)
    // Replicated decision: every rank adopts rank 0's clock, so the ranks
    // agree on when to stop (their local clocks may not).  Sampled at
    // pack time, so the decision lags the clock by up to one round — a
    // budget can be overshot by as much as two round durations (the old
    // post-round scalar allreduce overshot by one; the difference buys
    // zero extra messages).
    msg_.section(dist::RoundSection::kStopFlags)[0] =
        comm_.rank() == 0 ? seconds_since(start_) : 0.0;
  comm_.add_pack_seconds(seconds_since(t_pack));

  // The wait meter brackets the round's ONE collective: waiting for the
  // slowest rank, the combine and the copy-out.
  const EngineClock::time_point t_wait = EngineClock::now();
  msg_.reduce(comm_);
  comm_.add_wait_seconds(seconds_since(t_wait));
  const EngineClock::time_point t_apply = EngineClock::now();
  apply_round(s_eff, msg_);
  comm_.add_apply_seconds(seconds_since(t_apply));

  // Trailer sections → stopping criteria, zero extra collectives.
  if (read_objective) {
    const double objective = objective_from_partial(
        msg_.section(dist::RoundSection::kObjective)[0]);
    if (have_prev_round_objective_ &&
        objective_plateaued(prev_round_objective_, objective,
                            spec_.objective_tolerance)) {
      done_ = true;
      reason_ = StopReason::kObjectiveTolerance;
    }
    have_prev_round_objective_ = true;
    prev_round_objective_ = objective;
    prev_round_objective_iter_ = iterations_done_;
  }
  if (piggyback_wall_ && !done_ &&
      msg_.section(dist::RoundSection::kStopFlags)[0] >=
          spec_.wall_clock_budget) {
    done_ = true;
    reason_ = StopReason::kWallClockBudget;
  }
}

void EngineBase::check_stops_after_round() {
  const double objective = trace_.points.back().objective;
  if (!done_) {
    if (spec_.gap_tolerance > 0.0 && objective <= spec_.gap_tolerance) {
      done_ = true;
      reason_ = StopReason::kGapTolerance;
    } else if (!piggyback_objective_ && spec_.objective_tolerance > 0.0 &&
               have_prev_objective_ &&
               objective_plateaued(prev_objective_, objective,
                                   spec_.objective_tolerance)) {
      // Trace-granularity fallback for engines without a summable round
      // objective (the SVM duality gap needs a full margins reduction).
      done_ = true;
      reason_ = StopReason::kObjectiveTolerance;
    }
  }
  have_prev_objective_ = true;
  prev_objective_ = objective;
}

void EngineBase::push_trace_point(std::size_t iteration, double objective,
                                  const dist::CommStats& snapshot) {
  TracePoint point;
  point.iteration = iteration;
  point.objective = objective;
  point.stats = snapshot;
  point.wall_seconds = seconds_since(start_);
  trace_.points.push_back(point);
}

SolveResult EngineBase::finish() {
  SA_CHECK(!result_taken_, "Solver::finish: result already taken");
  result_taken_ = true;
  done_ = true;
  if (ckpt_async_) {
    // The terminal checkpoint must be on disk before the result is handed
    // back (callers read the file right after run()).
    const EngineClock::time_point t0 = EngineClock::now();
    ckpt_async_->drain();
    comm_.add_checkpoint_seconds(seconds_since(t0));
  }
  // Always capture the terminal state so final_objective() reflects the
  // returned iterate even when H is not a multiple of the trace cadence.
  if (spec_.trace_every > 0 &&
      (trace_.points.empty() ||
       trace_.points.back().iteration != iterations_done_)) {
    record_trace_point(iterations_done_);
  }
  SolveResult out;
  out.algorithm = spec_.algorithm;
  out.stop_reason = reason_;
  assemble(out);  // may communicate; counted in the final stats below
  out.trace = std::move(trace_);
  out.trace.final_stats = comm_.stats();
  out.trace.final_stats.kernel_isa =
      static_cast<std::size_t>(la::simd::active_isa());
  out.trace.total_wall_seconds = seconds_since(start_);
  out.stats = out.trace.final_stats;
  return out;
}

// ---------------------------------------------------------------------
// Snapshot / resume
// ---------------------------------------------------------------------

namespace {

/// CommStats on the wire: the five scalar counters followed by
/// (collectives, words) per RoundMessage section.
constexpr std::size_t kStatsWords = 5 + 2 * dist::kRoundSectionCount;

void push_stats_words(io::SnapshotWriter& out, const dist::CommStats& s) {
  out.push_u64(s.flops);
  out.push_u64(s.replicated_flops);
  out.push_u64(s.messages);
  out.push_u64(s.words);
  out.push_u64(s.collectives);
  for (const dist::SectionTraffic& t : s.sections) {
    out.push_u64(t.collectives);
    out.push_u64(t.words);
  }
}

dist::CommStats stats_from_words(std::span<const std::uint64_t> w) {
  dist::CommStats s;
  s.flops = w[0];
  s.replicated_flops = w[1];
  s.messages = w[2];
  s.words = w[3];
  s.collectives = w[4];
  for (std::size_t i = 0; i < dist::kRoundSectionCount; ++i) {
    s.sections[i].collectives = w[5 + 2 * i];
    s.sections[i].words = w[6 + 2 * i];
  }
  return s;
}

void require_match_u64(const char* what, std::uint64_t snapshot_value,
                       std::uint64_t solver_value) {
  if (snapshot_value == solver_value) return;
  std::ostringstream os;
  os << "snapshot: spec mismatch — " << what << " is " << snapshot_value
     << " in the snapshot but " << solver_value << " in this solver";
  throw io::SnapshotError(os.str());
}

void require_match_real(const char* what, double snapshot_value,
                        double solver_value) {
  if (snapshot_value == solver_value) return;
  std::ostringstream os;
  os << "snapshot: spec mismatch — " << what << " is " << snapshot_value
     << " in the snapshot but " << solver_value << " in this solver";
  throw io::SnapshotError(os.str());
}

}  // namespace

void EngineBase::save_state(io::SnapshotWriter& out) {
  SA_CHECK(!result_taken_,
           "Solver::save_state: the solver is spent (finish() was called)");
  const dist::CommStats at_save = comm_.stats();
  out.reset(spec_.algorithm);

  // Spec fingerprint: resuming under a configuration that changes the
  // math (different λ, depth, block size, groups, …) would silently fork
  // the trajectory, so the structural knobs are pinned and verified at
  // load.  max_iterations and the stopping tolerances are deliberately
  // NOT pinned — extending H or tightening a tolerance on resume is the
  // point of checkpointing.
  out.begin_u64s("core/spec_words", 8);
  out.push_u64(spec_.unroll_depth());
  out.push_u64(spec_.block_size);
  out.push_u64(static_cast<std::uint64_t>(spec_.penalty));
  out.push_u64(spec_.accelerated ? 1 : 0);
  out.push_u64(static_cast<std::uint64_t>(spec_.loss));
  out.push_u64(spec_.groups.num_groups());
  out.push_u64(io::fnv1a_words(spec_.groups.offsets));
  out.push_u64(spec_.seed);
  out.begin_doubles("core/spec_reals", 3);
  out.push_double(spec_.lambda);
  out.push_double(spec_.elastic_net_l1);
  out.push_double(spec_.elastic_net_l2);

  // The reduction grouping is part of the reproducibility fingerprint:
  // every cross-rank sum folded under this grid, so resuming under a
  // different grid (or a build speaking a different grouping schema)
  // would change the bits.  Recorded as [schema version, chunk size,
  // extent] and verified descriptively at load.
  out.begin_u64s("core/grouping", 3);
  out.push_u64(common::kReduceGroupingVersion);
  out.push_u64(grouping_.chunk);
  out.push_u64(grouping_.extent);

  // Round-loop and stopping-criterion progress, including the round
  // index (rounds_run_), so a resumed solve keeps counting rounds where
  // the snapshot left off.
  out.begin_u64s("core/state_words", 9);
  out.push_u64(iterations_done_);
  out.push_u64(since_trace_);
  out.push_u64(first_round_ ? 1 : 0);
  out.push_u64(done_ ? 1 : 0);
  out.push_u64(static_cast<std::uint64_t>(reason_));
  out.push_u64(have_prev_objective_ ? 1 : 0);
  out.push_u64(have_prev_round_objective_ ? 1 : 0);
  out.push_u64(prev_round_objective_iter_);
  out.push_u64(rounds_run_);
  out.begin_doubles("core/state_reals", 3);
  out.push_double(prev_objective_);
  out.push_double(prev_round_objective_);
  out.push_double(seconds_since(start_));

  // This rank's metering and instrumented trace (rank 0's copy is the one
  // a file carries; ranks restoring a foreign image adopt its counters —
  // results are reported from rank 0).
  out.begin_u64s("core/stats", kStatsWords);
  push_stats_words(out, at_save);
  const std::size_t points = trace_.points.size();
  out.begin_u64s("core/trace_iterations", points);
  for (const TracePoint& p : trace_.points) out.push_u64(p.iteration);
  out.begin_doubles("core/trace_objectives", points);
  for (const TracePoint& p : trace_.points) out.push_double(p.objective);
  out.begin_doubles("core/trace_wall", points);
  for (const TracePoint& p : trace_.points) out.push_double(p.wall_seconds);
  out.begin_u64s("core/trace_stats", points * kStatsWords);
  for (const TracePoint& p : trace_.points) push_stats_words(out, p.stats);

  save_engine_state(out);
  // The engine gathers ride the communicator but are instrumentation,
  // not solver traffic: exclude them, like record_trace_point does.
  comm_.set_stats(at_save);
}

void EngineBase::load_state(const io::SnapshotReader& in) {
  SA_CHECK(!result_taken_,
           "Solver::load_state: the solver is spent (finish() was called)");
  if (in.algorithm() != spec_.algorithm) {
    throw io::SnapshotError("snapshot: algorithm mismatch — the snapshot "
                            "was taken by '" +
                            in.algorithm() + "' but this solver is '" +
                            spec_.algorithm + "'");
  }
  const std::span<const std::uint64_t> spec_words =
      in.u64s("core/spec_words", 8);
  require_match_u64("unrolling depth", spec_words[0], spec_.unroll_depth());
  require_match_u64("block size", spec_words[1], spec_.block_size);
  require_match_u64("penalty", spec_words[2],
                    static_cast<std::uint64_t>(spec_.penalty));
  require_match_u64("acceleration", spec_words[3],
                    spec_.accelerated ? 1 : 0);
  require_match_u64("SVM loss", spec_words[4],
                    static_cast<std::uint64_t>(spec_.loss));
  require_match_u64("group count", spec_words[5],
                    spec_.groups.num_groups());
  require_match_u64("group offsets hash", spec_words[6],
                    io::fnv1a_words(spec_.groups.offsets));
  require_match_u64("seed", spec_words[7], spec_.seed);
  const std::span<const double> spec_reals = in.doubles("core/spec_reals", 3);
  require_match_real("lambda", spec_reals[0], spec_.lambda);
  require_match_real("elastic-net l1", spec_reals[1], spec_.elastic_net_l1);
  require_match_real("elastic-net l2", spec_reals[2], spec_.elastic_net_l2);

  // Reduction-grouping fingerprint: the snapshot's sums were folded under
  // this grid, so a solver on a different grid cannot continue them
  // bitwise.  Version first — a future grouping schema must fail by NAME,
  // not as a puzzling chunk-size mismatch.
  const std::span<const std::uint64_t> grouping_words =
      in.u64s("core/grouping", 3);
  if (grouping_words[0] != common::kReduceGroupingVersion) {
    std::ostringstream os;
    os << "snapshot: reduction grouping version " << grouping_words[0]
       << " in the snapshot, but this build implements grouping version "
       << common::kReduceGroupingVersion
       << " — its fixed-grouping sums cannot be continued bitwise";
    throw io::SnapshotError(os.str());
  }
  require_match_u64("reduction grouping chunk size", grouping_words[1],
                    grouping_.chunk);
  require_match_u64("reduction grouping extent", grouping_words[2],
                    grouping_.extent);

  const std::span<const std::uint64_t> state_words =
      in.u64s("core/state_words", 9);
  if (state_words[4] >
      static_cast<std::uint64_t>(StopReason::kWallClockBudget)) {
    throw io::SnapshotError("snapshot: invalid stop reason value");
  }
  const std::span<const double> state_reals =
      in.doubles("core/state_reals", 3);
  const std::span<const std::uint64_t> stats_words =
      in.u64s("core/stats", kStatsWords);
  const std::span<const std::uint64_t> trace_iters =
      in.u64s("core/trace_iterations");
  const std::size_t points = trace_iters.size();
  const std::span<const double> trace_objs =
      in.doubles("core/trace_objectives", points);
  const std::span<const double> trace_wall =
      in.doubles("core/trace_wall", points);
  const std::span<const std::uint64_t> trace_stats =
      in.u64s("core/trace_stats", points * kStatsWords);

  // The engine hook validates its own sections before mutating, so any
  // throw up to here leaves the whole solver untouched.
  load_engine_state(in);

  // ---- commit the skeleton ----
  iterations_done_ = state_words[0];
  since_trace_ = state_words[1];
  first_round_ = state_words[2] != 0;
  done_ = state_words[3] != 0;
  reason_ = static_cast<StopReason>(state_words[4]);
  have_prev_objective_ = state_words[5] != 0;
  have_prev_round_objective_ = state_words[6] != 0;
  prev_round_objective_iter_ = state_words[7];
  rounds_run_ = state_words[8];
  prev_objective_ = state_reals[0];
  prev_round_objective_ = state_reals[1];
  // Wall clock resumes from the saved elapsed time, so wall-budget
  // stopping accounts for the pre-interruption compute.
  start_ = EngineClock::now() -
           std::chrono::duration_cast<EngineClock::duration>(
               std::chrono::duration<double>(state_reals[2]));
  trace_.points.clear();
  trace_.points.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    TracePoint p;
    p.iteration = trace_iters[i];
    p.objective = trace_objs[i];
    p.wall_seconds = trace_wall[i];
    p.stats =
        stats_from_words(trace_stats.subspan(i * kStatsWords, kStatsWords));
    trace_.points.push_back(p);
  }
  trace_.iterations_run = iterations_done_;
  // Re-arm the trailer schema the original solve's first step() chose
  // (recomputed from the CURRENT spec, so a resumed run may toggle
  // criteria — the reduced bits of the body sections are unaffected).  A
  // pre-first-round snapshot leaves it to step().
  if (!first_round_) {
    piggyback_objective_ =
        spec_.objective_tolerance > 0.0 && has_round_objective();
    piggyback_wall_ = spec_.wall_clock_budget > 0.0;
    msg_.set_trailer_sizes(piggyback_objective_ ? 1 : 0,
                           piggyback_wall_ ? 1 : 0);
  }
  since_checkpoint_ = 0;
  comm_.set_stats(stats_from_words(stats_words));
}

std::span<const double> EngineBase::gather_full(
    std::span<const double> local, std::size_t begin, std::size_t total) {
  SA_CHECK(begin + local.size() <= total,
           "EngineBase::gather_full: slice exceeds the global extent");
  const std::span<double> full = msg_ws_.doubles(kGatherSlot, total);
  la::fill(full, 0.0);
  la::copy(local, full.subspan(begin, local.size()));
  comm_.allreduce_sum(full);
  // Canonicalise -0.0 → +0.0: each entry is owned by one rank, so the sum
  // is exact, but a -0.0 entry stays -0.0 serially while P ≥ 2 sums it to
  // +0.0 — the one bit pattern that could differ across rank counts.
  for (double& v : full) v += 0.0;
  return full;
}

void EngineBase::init_grouping(const data::Partition& part) {
  grouping_ = common::ReduceGrouping::make(part.total(), spec_.reduction_chunk);
  for (dist::RoundMessage* msg : {&msg_, &trace_msg_})
    msg->set_grouping(grouping_, part.offsets(), comm_.rank());
}

std::span<const double> EngineBase::reduce_grouped_sum() {
  trace_msg_.reduce(comm_);
  return trace_msg_.section(dist::RoundSection::kDots1);
}

void GramCache::write(dist::RoundMessage& msg,
                      std::span<const std::size_t> members) {
  const std::size_t words = width_ * (width_ + 1) / 2;
  if (!built_) {
    // One chunk per leaf call, each the one-chunk Gram of the padded
    // block: bitwise that chunk's partial by the chunk bit contract.
    msg.fold_table(table_, words,
                   [&](std::size_t begin, std::size_t end,
                       std::span<double> out) {
                     const std::size_t bounds[2] = {begin, end};
                     la::sampled_gram_range(all_, bounds, out);
                   });
    built_ = true;
  }
  msg.gather_table(dist::RoundSection::kGram,
                   [&](std::size_t block, std::span<double> out) {
                     la::gather_packed_upper(
                         std::span<const double>(table_).subspan(
                             block * words, words),
                         width_, members, out);
                   });
}

void EngineBase::fold_gram(dist::RoundMessage& msg, const la::BatchView& y,
                           std::span<const std::size_t> members) {
  if (gram_cache_.armed()) {
    gram_cache_.write(msg, members);
    // The build is metered once per solve, in its first round, not where
    // the table is built: a resumed solve rebuilds it unmetered, so its
    // counters match the uninterrupted solve's.
    if (rounds_run_ == 0) comm_.add_flops(gram_cache_.build_flops());
    return;
  }
  if (y.is_dense()) {
    msg.fold_owned(dist::RoundSection::kGram, dist::RoundSection::kGram,
                   [&](std::span<const std::size_t> bounds,
                       std::span<double> staged) {
                     la::sampled_gram_range(y, bounds, staged);
                   });
  } else {
    msg.fold_entries(dist::RoundSection::kGram,
                     [&](std::span<const std::size_t> bounds,
                         const auto& emit) {
                       la::sampled_gram_entries(y, bounds, la::EntrySink(emit));
                     });
  }
  comm_.add_flops(y.gram_flops());
}

void EngineBase::fold_norm_squared(dist::RoundMessage& msg,
                                   dist::RoundSection section,
                                   std::span<const double> local) {
  msg.fold_owned(section, section,
                 [&](std::span<const std::size_t> bounds,
                     std::span<double> staged) {
                   for (std::size_t c = 0; c + 1 < bounds.size(); ++c)
                     staged[c] = la::nrm2_squared(
                         local.subspan(bounds[c], bounds[c + 1] - bounds[c]));
                 });
}

double EngineBase::grouped_norm_allreduce(std::span<const double> local) {
  SA_STEADY_STATE;
  trace_msg_.layout(0, 1, 0);
  fold_norm_squared(trace_msg_, dist::RoundSection::kDots1, local);
  return reduce_grouped_sum()[0];
}

void EngineBase::snapshot_to_file(const std::string& path) {
  io::SnapshotWriter writer;
  save_state(writer);
  if (comm_.rank() == 0) io::write_snapshot_file(writer, path);
}

void EngineBase::restore_from_file(const std::string& path) {
  const dist::CommStats entry = comm_.stats();
  try {
    std::vector<std::uint8_t> bytes;
    std::string read_error;
    if (comm_.rank() == 0) {
      try {
        bytes = io::read_snapshot_bytes(path);
      } catch (const io::SnapshotError& error) {
        read_error = error.what();
        bytes.clear();
      }
    }
    comm_.broadcast_bytes(bytes, 0);
    if (bytes.empty()) {
      throw io::SnapshotError(
          !read_error.empty()
              ? read_error
              : "snapshot: rank 0 could not read '" + path + "'");
    }
    restore(bytes);
  } catch (...) {
    // A rejected restore leaves the solver untouched — including the
    // metering the broadcast just charged.
    comm_.set_stats(entry);
    throw;
  }
}

void EngineBase::write_checkpoint() {
  // Serialization is collective (save_state gathers partitioned state), so
  // it runs on every rank every checkpoint — only rank 0's disk write is
  // asynchronous, which is why a skipped write needs no replication.
  const EngineClock::time_point t0 = EngineClock::now();
  save_state(ckpt_writer_);
  if (comm_.rank() == 0) {
    if (ckpt_tmp_path_.empty()) {
      // Built once; later checkpoints reuse the string (zero-allocation
      // steady state).
      ckpt_tmp_path_.reserve(spec_.checkpoint_path.size() + 4);
      ckpt_tmp_path_ = spec_.checkpoint_path;
      ckpt_tmp_path_ += ".tmp";
    }
    // Hand the image to the writer thread; the round loop never blocks on
    // the disk.  Back-pressure (previous write still in flight) skips this
    // checkpoint — logged and counted in CommStats, never waited for.
    if (!ckpt_async_)
      ckpt_async_ = std::make_unique<io::AsyncCheckpointWriter>();
    if (!ckpt_async_->submit(ckpt_writer_.finalize(), spec_.checkpoint_path,
                             ckpt_tmp_path_)) {
      comm_.note_checkpoint_skip();
    }
  }
  comm_.add_checkpoint_seconds(seconds_since(t0));
}

}  // namespace detail
}  // namespace sa::core
