#include "core/registry.hpp"

#include <algorithm>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/grouping.hpp"
#include "core/engine.hpp"
#include "dist/thread_comm.hpp"

namespace sa::core {

SolverRegistry::SolverRegistry() {
  add({"lasso",
       "coordinate descent for Lasso/elastic-net (paper Alg. 1; CD/BCD, "
       "accCD/accBCD via acceleration)",
       PartitionAxis::kRows, detail::make_lasso_engine});
  add({"sa-lasso",
       "synchronization-avoiding s-step variant of `lasso` (paper Alg. 2)",
       PartitionAxis::kRows, detail::make_lasso_engine});
  add({"group-lasso",
       "randomized block coordinate descent with the group soft-threshold "
       "prox",
       PartitionAxis::kRows, detail::make_lasso_engine});
  add({"sa-group-lasso",
       "synchronization-avoiding s-step variant of `group-lasso`",
       PartitionAxis::kRows, detail::make_lasso_engine});
  add({"svm",
       "dual coordinate descent for linear SVM, L1/L2 hinge (paper Alg. 3)",
       PartitionAxis::kCols, detail::make_svm_engine});
  add({"sa-svm",
       "synchronization-avoiding s-step variant of `svm` (paper Alg. 4)",
       PartitionAxis::kCols, detail::make_svm_engine});
}

SolverRegistry& SolverRegistry::instance() {
  static SolverRegistry registry;
  return registry;
}

void SolverRegistry::add(AlgorithmInfo info) {
  for (AlgorithmInfo& existing : algorithms_) {
    if (existing.id == info.id) {
      existing = std::move(info);
      return;
    }
  }
  algorithms_.push_back(std::move(info));
}

bool SolverRegistry::remove(std::string_view id) {
  for (auto it = algorithms_.begin(); it != algorithms_.end(); ++it) {
    if (it->id == id) {
      algorithms_.erase(it);
      return true;
    }
  }
  return false;
}

const AlgorithmInfo* SolverRegistry::find(std::string_view id) const {
  for (const AlgorithmInfo& info : algorithms_)
    if (info.id == id) return &info;
  return nullptr;
}

// sa-lint: allow(alloc): allocates only to format the error it throws
const AlgorithmInfo& SolverRegistry::require(std::string_view id) const {
  if (const AlgorithmInfo* info = find(id)) return *info;
  std::ostringstream os;
  os << "unknown algorithm '" << id << "'; registered:";
  for (const std::string& known : ids()) os << ' ' << known;
  throw PreconditionError(os.str());
}

std::vector<std::string> SolverRegistry::ids() const {
  std::vector<std::string> out;
  out.reserve(algorithms_.size());
  for (const AlgorithmInfo& info : algorithms_) out.push_back(info.id);
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<Solver> make_solver(dist::Communicator& comm,
                                    const data::Dataset& dataset,
                                    const data::Partition& partition,
                                    const SolverSpec& spec) {
  const AlgorithmInfo& info =
      SolverRegistry::instance().require(spec.algorithm);
  return info.factory(comm, dataset, partition, spec);
}

data::Partition partition_for_ranks(const data::Dataset& dataset,
                                    const SolverSpec& spec, int ranks) {
  const AlgorithmInfo& info =
      SolverRegistry::instance().require(spec.algorithm);
  const std::size_t extent = info.axis == PartitionAxis::kRows
                                 ? dataset.num_points()
                                 : dataset.num_features();
  const common::ReduceGrouping grouping =
      common::ReduceGrouping::make(extent, spec.reduction_chunk);
  // Power-of-two rank counts get the fold tree's own nodes as blocks, the
  // layout on which each rank sends one payload (dist/round_message.hpp);
  // other counts keep balanced chunk-aligned blocks (the slotted wire).
  if (common::ReduceGrouping::rank_depth(static_cast<std::size_t>(ranks)) >= 0)
    return data::Partition(
        grouping.tree_partition(static_cast<std::size_t>(ranks)));
  return data::Partition::block_aligned(extent, ranks, grouping.chunk);
}

SolveResult solve(const data::Dataset& dataset, const SolverSpec& spec,
                  const std::string& resume_from) {
  const AlgorithmInfo& info =
      SolverRegistry::instance().require(spec.algorithm);
  dist::SerialComm comm;
  const std::unique_ptr<Solver> solver =
      info.factory(comm, dataset, partition_for_ranks(dataset, spec, 1),
                   spec);
  if (!resume_from.empty()) solver->restore_from_file(resume_from);
  return solver->run();
}

SolveResult solve_on_ranks(const data::Dataset& dataset,
                           const SolverSpec& spec, int ranks,
                           const std::string& resume_from) {
  SA_CHECK(ranks >= 1, "solve_on_ranks: ranks must be >= 1");
  if (ranks == 1) return solve(dataset, spec, resume_from);
  const AlgorithmInfo& info =
      SolverRegistry::instance().require(spec.algorithm);
  // Chunk-aligned boundaries: every global reduction chunk has a single
  // owner, so the tree-folded round sums match the serial fold bitwise.
  const data::Partition part = partition_for_ranks(dataset, spec, ranks);
  SolveResult result;
  std::mutex lock;
  dist::run_distributed(ranks, [&](dist::Communicator& comm) {
    const std::unique_ptr<Solver> solver =
        info.factory(comm, dataset, part, spec);
    if (!resume_from.empty()) solver->restore_from_file(resume_from);
    SolveResult r = solver->run();
    if (comm.rank() == 0) {
      std::scoped_lock guard(lock);
      result = std::move(r);
    }
  });
  return result;
}

std::vector<std::string> registered_algorithms() {
  return SolverRegistry::instance().ids();
}

}  // namespace sa::core
