// String-keyed solver registry: the one place that maps algorithm ids to
// engine factories.  Every driver (CLI, paths, cross-validation, tests,
// benchmarks) constructs solvers through make_solver, so adding an
// algorithm means registering one factory — no per-caller dispatch.
//
//   for (const std::string& id : registered_algorithms()) { ... }
//   auto solver = make_solver(comm, dataset, partition,
//                             SolverSpec::make("sa-svm"));
//
// The six built-in ids run on two engines:
//   lasso, sa-lasso               Lasso/elastic-net (Algorithms 1 / 2)
//   group-lasso, sa-group-lasso   Group Lasso BCD and its s-step variant
//                                 (the same least-squares engine, with
//                                 the group soft-threshold as its prox)
//   svm, sa-svm                   dual CD SVM (Algorithms 3 / 4)
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/solver.hpp"
#include "data/partition.hpp"

namespace sa::core {

/// Which dataset dimension the solver's 1D partition splits: the Lasso
/// families partition rows (Figure 1), the SVM family columns (§V).
/// Generic drivers use this to build the right Partition for a rank count.
enum class PartitionAxis { kRows, kCols };

using SolverFactory = std::function<std::unique_ptr<Solver>(
    dist::Communicator&, const data::Dataset&, const data::Partition&,
    const SolverSpec&)>;

/// One registered algorithm.
struct AlgorithmInfo {
  std::string id;
  std::string description;  ///< one line, shown by `sa_opt_cli --list`
  PartitionAxis axis = PartitionAxis::kRows;
  SolverFactory factory;
};

/// Process-wide algorithm table.  The built-ins register themselves on
/// first access; add() lets applications plug in their own solvers behind
/// the same facade.
///
/// Thread-safety: lookups (find/require/ids) are safe to call from any
/// number of threads once registration is done; add() mutates the table
/// without locking and must happen before concurrent use — register
/// custom algorithms at startup, not from solver threads.
class SolverRegistry {
 public:
  static SolverRegistry& instance();

  /// Registers (or replaces) an algorithm.  Not thread-safe; call before
  /// any concurrent make_solver/find traffic (see class comment).
  void add(AlgorithmInfo info);

  /// Unregisters an algorithm; returns false when `id` was not present.
  /// Same thread-safety caveat as add().
  bool remove(std::string_view id);

  /// nullptr when `id` is not registered.
  const AlgorithmInfo* find(std::string_view id) const;

  /// Like find(), but throws PreconditionError naming the available ids.
  const AlgorithmInfo& require(std::string_view id) const;

  /// All registered ids, sorted.
  std::vector<std::string> ids() const;

 private:
  SolverRegistry();  // registers the six built-ins
  std::vector<AlgorithmInfo> algorithms_;
};

/// Constructs the solver `spec.algorithm` names, validated against the
/// dataset.  `partition` splits the axis the algorithm expects (see
/// AlgorithmInfo::axis); call on every rank of `comm` with identical
/// arguments.  Throws PreconditionError for unknown ids, listing the
/// registered set.
std::unique_ptr<Solver> make_solver(dist::Communicator& comm,
                                    const data::Dataset& dataset,
                                    const data::Partition& partition,
                                    const SolverSpec& spec);

/// The partition solve()/solve_on_ranks() build for `ranks` ranks: a
/// block partition of the algorithm's axis whose boundaries are ALIGNED
/// to the solve's fixed reduction-chunk grid
/// (common::ReduceGrouping::make over the axis extent and
/// spec.reduction_chunk).  Alignment is what makes every global chunk
/// single-owner, so the tree-folded round sums — and therefore entire
/// traces — are bitwise identical across rank counts.  For a power-of-two
/// `ranks` the blocks are the fold tree's depth-log₂P nodes
/// (ReduceGrouping::tree_partition), so each rank sends one payload per
/// round; other counts get balanced chunk-aligned blocks and the slotted
/// wire.  Exported so tests and drivers that construct solvers directly
/// can reproduce the exact partition grid.
data::Partition partition_for_ranks(const data::Dataset& dataset,
                                    const SolverSpec& spec, int ranks);

/// Serial convenience (P = 1): builds the trivial partition on the right
/// axis and runs to completion.  A non-empty `resume_from` restores the
/// solver from that snapshot file before running (the continued solve is
/// bitwise identical to an uninterrupted one — see io/snapshot.hpp).
SolveResult solve(const data::Dataset& dataset, const SolverSpec& spec,
                  const std::string& resume_from = "");

/// Multi-rank convenience: runs `spec` on `ranks` thread-backed
/// communicator ranks (block partition on the algorithm's axis) and
/// returns rank 0's result (results are replicated across ranks).
/// `ranks == 1` degenerates to solve().  A non-empty `resume_from`
/// restores every rank from the snapshot (rank 0 reads, the bytes travel
/// through the communicator) before running.
SolveResult solve_on_ranks(const data::Dataset& dataset,
                           const SolverSpec& spec, int ranks,
                           const std::string& resume_from = "");

/// Sorted ids of every registered algorithm.
std::vector<std::string> registered_algorithms();

}  // namespace sa::core
