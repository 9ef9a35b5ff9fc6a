/// \file packing.hpp
/// The multi-dimensional packing problem at the heart of Theorem 3.
///
/// Items are "unschedulable combinations"; resources are (overload chain,
/// active segment) pairs with capacity Ω^a_b.  Each copy of an item
/// consumes one unit of each resource it references, and the objective is
/// to maximize the total number of packed copies — i.e. the number of
/// busy windows that can be made unschedulable.
///
/// Theorem 3 needs one exact optimum, so there is one exact solver: the
/// ILP of `branch_and_bound.hpp` (mirroring the paper's use of an ILP
/// solver), optionally split over independent subproblems.  An
/// independent depth-first enumeration cross-checks it from the test
/// oracles (oracles/packing_reference.hpp); it is not part of the
/// library.

#ifndef WHARF_ILP_PACKING_HPP
#define WHARF_ILP_PACKING_HPP

#include <vector>

#include "util/types.hpp"

namespace wharf::ilp {

/// Integer packing: maximize sum(x_i) subject to, for every resource r,
/// sum over items i that use r of x_i <= capacity[r], x_i >= 0 integral.
struct PackingProblem {
  /// item_resources[i] lists the resource indices item i consumes
  /// (one unit each); indices must be unique within an item.
  std::vector<std::vector<int>> item_resources;
  /// Per-resource capacities (>= 0).
  std::vector<Count> capacities;
};

/// Result of a packing solve.
struct PackingSolution {
  /// Maximum total number of packed item copies.
  Count total = 0;
  /// Optimal multiplicity per item.
  std::vector<Count> counts;
  /// Search nodes explored by the solver (branch-and-bound nodes for
  /// the library's solvers).
  long long nodes = 0;
};

/// Exact solver via the branch-and-bound ILP.
[[nodiscard]] PackingSolution solve_packing_ilp(const PackingProblem& problem);

/// An exact decomposition of a packing problem into independent
/// subproblems: items coupled (transitively) through shared resources
/// land in the same subproblem, so the optimum of the whole problem is
/// the sum of the subproblem optima.  In the TWCA instance, items are
/// unschedulable combinations and resources are (overload chain, active
/// segment) pairs — combinations touching disjoint chain/segment sets
/// decompose, which is what makes one target's packing solve splittable
/// across a worker pool.
struct PackingPartition {
  /// Subproblems in deterministic order (by smallest original item
  /// index), each with resources renumbered densely.
  std::vector<PackingProblem> subproblems;
  /// item_map[s][j] = original index of subproblem s's item j.
  std::vector<std::vector<std::size_t>> item_map;
};

/// Partitions a problem into independent subproblems (validates first).
[[nodiscard]] PackingPartition partition_packing(const PackingProblem& problem);

/// Exact solve via decomposition: partitions the problem and solves the
/// independent subproblems with solve_packing_ilp on `jobs` workers
/// (util::parallel_for_index; a free worker takes the next subproblem,
/// which balances skewed sizes).  The result — total, per-item counts,
/// summed node count — is bit-identical for every jobs value,
/// including 1.
[[nodiscard]] PackingSolution solve_packing_split(const PackingProblem& problem, int jobs);

/// Validates a packing problem (non-negative capacities, resource indices
/// in range, no duplicate resource within an item); throws
/// wharf::InvalidArgument on violation.
void validate(const PackingProblem& problem);

}  // namespace wharf::ilp

#endif  // WHARF_ILP_PACKING_HPP
