#include "ilp/packing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "ilp/branch_and_bound.hpp"
#include "util/expect.hpp"

namespace wharf::ilp {

void validate(const PackingProblem& problem) {
  const int num_resources = static_cast<int>(problem.capacities.size());
  for (Count cap : problem.capacities) {
    WHARF_EXPECT(cap >= 0, "packing capacity must be non-negative, got " << cap);
  }
  for (const auto& item : problem.item_resources) {
    WHARF_EXPECT(!item.empty(), "packing item must consume at least one resource");
    std::vector<int> sorted = item;
    std::sort(sorted.begin(), sorted.end());
    WHARF_EXPECT(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
                 "packing item references a resource twice");
    for (int r : item) {
      WHARF_EXPECT(r >= 0 && r < num_resources,
                   "packing item references resource " << r << " out of range [0, "
                                                       << num_resources << ")");
    }
  }
}

PackingSolution solve_packing_ilp(const PackingProblem& problem) {
  validate(problem);
  const int n = static_cast<int>(problem.item_resources.size());
  PackingSolution out;
  out.counts.assign(static_cast<std::size_t>(n), 0);
  if (n == 0) return out;

  lp::Problem relaxation(std::vector<double>(static_cast<std::size_t>(n), 1.0));
  for (std::size_t r = 0; r < problem.capacities.size(); ++r) {
    std::vector<double> row(static_cast<std::size_t>(n), 0.0);
    bool used = false;
    for (int i = 0; i < n; ++i) {
      const auto& res = problem.item_resources[static_cast<std::size_t>(i)];
      if (std::find(res.begin(), res.end(), static_cast<int>(r)) != res.end()) {
        row[static_cast<std::size_t>(i)] = 1.0;
        used = true;
      }
    }
    if (used) relaxation.add_le(std::move(row), static_cast<double>(problem.capacities[r]));
  }

  Problem ilp{std::move(relaxation), std::vector<bool>(static_cast<std::size_t>(n), true)};
  Options options;
  options.objective_is_integral = true;
  const Solution sol = solve(ilp, options);
  WHARF_EXPECT(sol.status == Status::kOptimal || sol.status == Status::kInfeasible,
               "packing ILP did not solve to optimality: status "
                   << static_cast<int>(sol.status));
  out.nodes = sol.nodes_explored;
  if (sol.status == Status::kOptimal) {
    out.total = static_cast<Count>(std::llround(sol.objective));
    for (int i = 0; i < n; ++i) {
      out.counts[static_cast<std::size_t>(i)] =
          static_cast<Count>(std::llround(sol.x[static_cast<std::size_t>(i)]));
    }
  }
  return out;
}

PackingPartition partition_packing(const PackingProblem& problem) {
  validate(problem);
  const std::size_t n = problem.item_resources.size();

  // Union-find over items; resources link the items that share them.
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::vector<std::size_t> resource_owner(problem.capacities.size(),
                                          std::numeric_limits<std::size_t>::max());
  for (std::size_t i = 0; i < n; ++i) {
    for (const int r : problem.item_resources[i]) {
      std::size_t& owner = resource_owner[static_cast<std::size_t>(r)];
      if (owner == std::numeric_limits<std::size_t>::max()) {
        owner = i;
      } else {
        parent[find(owner)] = find(i);
      }
    }
  }

  // Assign dense subproblem ids in order of first (smallest) item index,
  // so the partition is deterministic regardless of union order.
  PackingPartition partition;
  std::vector<std::size_t> component(n, std::numeric_limits<std::size_t>::max());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = find(i);
    if (component[root] == std::numeric_limits<std::size_t>::max()) {
      component[root] = partition.subproblems.size();
      partition.subproblems.emplace_back();
      partition.item_map.emplace_back();
    }
    const std::size_t s = component[root];
    // Keep original resource ids for now; they are renumbered densely
    // once the whole group is known.
    partition.subproblems[s].item_resources.push_back(problem.item_resources[i]);
    partition.item_map[s].push_back(i);
  }

  // Remap resource ids densely per subproblem (ascending original id).
  for (PackingProblem& sub : partition.subproblems) {
    std::vector<int> used;
    for (const auto& item : sub.item_resources) used.insert(used.end(), item.begin(), item.end());
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    sub.capacities.reserve(used.size());
    for (const int r : used) sub.capacities.push_back(problem.capacities[static_cast<std::size_t>(r)]);
    for (auto& item : sub.item_resources) {
      for (int& r : item) {
        r = static_cast<int>(std::lower_bound(used.begin(), used.end(), r) - used.begin());
      }
    }
  }
  return partition;
}

PackingSolution solve_packing(const PackingProblem& problem) {
  const PackingPartition partition = partition_packing(problem);
  PackingSolution out;
  out.counts.assign(problem.item_resources.size(), 0);
  for (std::size_t s = 0; s < partition.subproblems.size(); ++s) {
    const PackingSolution solved = solve_packing_ilp(partition.subproblems[s]);
    out.total += solved.total;
    out.nodes += solved.nodes;
    for (std::size_t j = 0; j < partition.item_map[s].size(); ++j) {
      out.counts[partition.item_map[s][j]] = solved.counts[j];
    }
  }
  return out;
}

}  // namespace wharf::ilp
