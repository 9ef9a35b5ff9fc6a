/// \file packing_reference.cpp
/// The exhaustive DFS packer and the full unschedulable-combination set,
/// moved out of libwharf once production settled on one exact path
/// (minimal combinations, branch-and-bound ILP).  The tests and
/// bench_ablation_ilp check that both slower paths reach the same dmm.

#include "oracles/packing_reference.hpp"

#include <algorithm>
#include <limits>

#include "core/busy_window.hpp"
#include "core/interference.hpp"
#include "util/expect.hpp"

namespace wharf::reference {

namespace {

/// Optimistic completion bound: sum over the remaining items of the
/// largest multiplicity each could take if it were alone (capacities not
/// decremented between items), which dominates any feasible completion.
Count optimistic_bound(const ilp::PackingProblem& problem, std::size_t first_item,
                       const std::vector<Count>& remaining) {
  Count bound = 0;
  for (std::size_t i = first_item; i < problem.item_resources.size(); ++i) {
    Count item_max = std::numeric_limits<Count>::max();
    for (int r : problem.item_resources[i]) {
      item_max = std::min(item_max, remaining[static_cast<std::size_t>(r)]);
    }
    if (item_max == std::numeric_limits<Count>::max()) item_max = 0;
    bound += item_max;
  }
  return bound;
}

struct DfsState {
  const ilp::PackingProblem* problem = nullptr;
  std::vector<Count> remaining;
  std::vector<Count> counts;
  std::vector<Count> best_counts;
  Count best = 0;
  long long nodes = 0;
};

void dfs(DfsState& state, std::size_t item, Count packed) {
  ++state.nodes;
  if (packed > state.best) {
    state.best = packed;
    state.best_counts = state.counts;
  }
  if (item >= state.problem->item_resources.size()) return;
  if (packed + optimistic_bound(*state.problem, item, state.remaining) <= state.best) return;

  Count item_max = std::numeric_limits<Count>::max();
  for (int r : state.problem->item_resources[item]) {
    item_max = std::min(item_max, state.remaining[static_cast<std::size_t>(r)]);
  }
  // Try the largest multiplicities first: good incumbents early.
  for (Count take = item_max; take >= 0; --take) {
    for (int r : state.problem->item_resources[item]) {
      state.remaining[static_cast<std::size_t>(r)] -= take;
    }
    state.counts[item] = take;
    dfs(state, item + 1, packed + take);
    state.counts[item] = 0;
    for (int r : state.problem->item_resources[item]) {
      state.remaining[static_cast<std::size_t>(r)] += take;
    }
  }
}

}  // namespace

ilp::PackingSolution solve_packing_dfs(const ilp::PackingProblem& problem) {
  ilp::validate(problem);
  ilp::PackingSolution out;
  out.counts.assign(problem.item_resources.size(), 0);
  if (problem.item_resources.empty()) return out;

  DfsState state;
  state.problem = &problem;
  state.remaining = problem.capacities;
  state.counts.assign(problem.item_resources.size(), 0);
  state.best_counts = state.counts;
  dfs(state, 0, 0);

  out.total = state.best;
  out.counts = state.best_counts;
  out.nodes = state.nodes;
  return out;
}

std::vector<Combination> all_unschedulable_combinations(const System& system,
                                                        const OverloadStructure& structure,
                                                        Time slack, std::size_t max_count) {
  WHARF_EXPECT(slack >= 0, "all_unschedulable_combinations requires non-negative slack, got "
                               << slack);
  std::vector<Combination> out = enumerate_combinations(system, structure, max_count);
  std::erase_if(out, [slack](const Combination& c) { return c.cost <= slack; });
  return out;
}

DmmResult dmm(const System& system, int target, Count k, const TwcaOptions& options,
              DmmPaths paths) {
  const InterferenceContext context = make_interference_context(system, target);
  const LatencyResult latency = latency_analysis(system, context, options.analysis);
  TargetArtifacts artifacts = build_target_artifacts(system, target, context, latency, options);
  if (paths.full_combination_set && !artifacts.no_guarantee_reason.has_value() &&
      !artifacts.always_meets) {
    artifacts.unschedulable = all_unschedulable_combinations(
        system, artifacts.structure, artifacts.slack, options.max_combinations);
  }
  PackingSolver solver;
  if (paths.dfs_packer) solver = solve_packing_dfs;
  return dmm_from_artifacts(system, target, latency, artifacts, k, options, solver);
}

}  // namespace wharf::reference
