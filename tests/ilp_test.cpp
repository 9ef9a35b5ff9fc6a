// Unit tests for branch & bound ILP and the packing solvers (src/ilp),
// including cross-validation between the ILP path and the DFS path on
// random packing instances.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "ilp/branch_and_bound.hpp"
#include "ilp/packing.hpp"
#include "oracles/packing_reference.hpp"
#include "util/expect.hpp"

namespace wharf::ilp {
namespace {

constexpr double kTol = 1e-6;

Problem make_ilp(std::vector<double> objective) {
  Problem p{lp::Problem(std::move(objective)), {}};
  p.integrality.assign(static_cast<std::size_t>(p.relaxation.num_vars()), true);
  return p;
}

TEST(BranchAndBound, IntegerKnapsack) {
  // max 8x + 11y + 6z st 5x + 7y + 4z <= 14, x,y,z in {0,1}
  // => y + z (obj 17)? Check: x+z: 8+6=14 weight 9; y+z: 17 weight 11; x+y: 19 weight 12 <= 14!
  Problem p = make_ilp({8.0, 11.0, 6.0});
  p.relaxation.add_le({5.0, 7.0, 4.0}, 14.0);
  for (int j = 0; j < 3; ++j) p.relaxation.add_upper_bound(j, 1.0);
  Options options;
  options.objective_is_integral = true;
  const Solution s = solve(p, options);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 19.0, kTol);  // x = y = 1
}

TEST(BranchAndBound, FractionalRelaxationRoundsDown) {
  // max x st 2x <= 3, x integral => x = 1 (relaxation gives 1.5).
  Problem p = make_ilp({1.0});
  p.relaxation.add_le({2.0}, 3.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, kTol);
  EXPECT_NEAR(s.x[0], 1.0, kTol);
}

TEST(BranchAndBound, MixedIntegerKeepsContinuousFree) {
  // max x + y st x + y <= 2.5, x integral, y continuous.
  Problem p{lp::Problem({1.0, 1.0}), {true, false}};
  p.relaxation.add_le({1.0, 1.0}, 2.5);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 2.5, kTol);
}

TEST(BranchAndBound, Infeasible) {
  Problem p = make_ilp({1.0});
  p.relaxation.add_ge({1.0}, 5.0);
  p.relaxation.add_le({1.0}, 2.0);
  EXPECT_EQ(solve(p).status, Status::kInfeasible);
}

TEST(BranchAndBound, UnboundedDetected) {
  Problem p = make_ilp({1.0});
  const Solution s = solve(p);
  EXPECT_EQ(s.status, Status::kUnbounded);
}

TEST(BranchAndBound, IntegralityMaskSizeChecked) {
  Problem p{lp::Problem({1.0, 1.0}), {true}};
  EXPECT_THROW(solve(p), InvalidArgument);
}

TEST(BranchAndBound, NontrivialGap) {
  // max 5x + 4y st 6x + 4y <= 24, x + 2y <= 6; LP opt at (3, 1.5) = 21;
  // ILP opt is 5*3+4*1 = 19? check (2,2): 18; (4,0): 24 weight>24 no 6*4=24 ok! x=4,y=0: obj 20, 6*4+0=24<=24, 4+0<=6 feasible => 20.
  Problem p = make_ilp({5.0, 4.0});
  p.relaxation.add_le({6.0, 4.0}, 24.0);
  p.relaxation.add_le({1.0, 2.0}, 6.0);
  Options options;
  options.objective_is_integral = true;
  const Solution s = solve(p, options);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 20.0, kTol);
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

TEST(Packing, SingleItemSingleResource) {
  PackingProblem p;
  p.capacities = {3};
  p.item_resources = {{0}};
  EXPECT_EQ(solve_packing_ilp(p).total, 3);
  EXPECT_EQ(reference::solve_packing_dfs(p).total, 3);
}

TEST(Packing, CaseStudyShape) {
  // Table II shape: one unschedulable combination using both overload
  // resources with capacity 3 each => 3 packings.
  PackingProblem p;
  p.capacities = {3, 3};
  p.item_resources = {{0, 1}};
  EXPECT_EQ(solve_packing_ilp(p).total, 3);
  EXPECT_EQ(reference::solve_packing_dfs(p).total, 3);
}

TEST(Packing, DisjointItemsAdd) {
  PackingProblem p;
  p.capacities = {2, 5};
  p.item_resources = {{0}, {1}};
  EXPECT_EQ(solve_packing_ilp(p).total, 7);
  EXPECT_EQ(reference::solve_packing_dfs(p).total, 7);
}

TEST(Packing, SharedResourceLimits) {
  // Items {0},{0,1}: resource 0 capacity 4 shared.
  PackingProblem p;
  p.capacities = {4, 2};
  p.item_resources = {{0}, {0, 1}};
  EXPECT_EQ(solve_packing_ilp(p).total, 4);
  EXPECT_EQ(reference::solve_packing_dfs(p).total, 4);
}

TEST(Packing, ZeroCapacityBlocksItems) {
  PackingProblem p;
  p.capacities = {0, 3};
  p.item_resources = {{0}, {0, 1}, {1}};
  EXPECT_EQ(solve_packing_ilp(p).total, 3);
  EXPECT_EQ(reference::solve_packing_dfs(p).total, 3);
}

TEST(Packing, EmptyProblem) {
  PackingProblem p;
  p.capacities = {1, 2};
  EXPECT_EQ(solve_packing_ilp(p).total, 0);
  EXPECT_EQ(reference::solve_packing_dfs(p).total, 0);
}

TEST(Packing, ValidationRejectsBadResource) {
  PackingProblem p;
  p.capacities = {1};
  p.item_resources = {{1}};
  EXPECT_THROW(validate(p), InvalidArgument);
}

TEST(Packing, ValidationRejectsDuplicateResourceInItem) {
  PackingProblem p;
  p.capacities = {2};
  p.item_resources = {{0, 0}};
  EXPECT_THROW(validate(p), InvalidArgument);
}

TEST(Packing, ValidationRejectsNegativeCapacity) {
  PackingProblem p;
  p.capacities = {-1};
  p.item_resources = {{0}};
  EXPECT_THROW(validate(p), InvalidArgument);
}

TEST(Packing, CountsAreConsistentWithTotal) {
  PackingProblem p;
  p.capacities = {4, 3, 5};
  p.item_resources = {{0, 1}, {1, 2}, {0, 2}, {2}};
  const PackingSolution ilp_sol = solve_packing_ilp(p);
  const PackingSolution dfs_sol = reference::solve_packing_dfs(p);
  EXPECT_EQ(ilp_sol.total, dfs_sol.total);
  Count sum = 0;
  for (Count c : ilp_sol.counts) sum += c;
  EXPECT_EQ(sum, ilp_sol.total);
  // Verify capacity feasibility of the ILP solution.
  std::vector<Count> used(p.capacities.size(), 0);
  for (std::size_t i = 0; i < p.item_resources.size(); ++i) {
    for (int r : p.item_resources[i]) used[static_cast<std::size_t>(r)] += ilp_sol.counts[i];
  }
  for (std::size_t r = 0; r < used.size(); ++r) EXPECT_LE(used[r], p.capacities[r]);
}

class PackingRandomCross : public ::testing::TestWithParam<int> {};

TEST_P(PackingRandomCross, IlpMatchesDfs) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  std::uniform_int_distribution<int> res_count(1, 5);
  std::uniform_int_distribution<int> item_count(1, 6);
  std::uniform_int_distribution<Count> cap(0, 6);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  PackingProblem p;
  const int resources = res_count(rng);
  p.capacities.resize(static_cast<std::size_t>(resources));
  for (Count& c : p.capacities) c = cap(rng);
  const int items = item_count(rng);
  for (int i = 0; i < items; ++i) {
    std::vector<int> used;
    for (int r = 0; r < resources; ++r) {
      if (coin(rng) < 0.5) used.push_back(r);
    }
    if (used.empty()) used.push_back(0);
    p.item_resources.push_back(std::move(used));
  }

  const PackingSolution a = solve_packing_ilp(p);
  const PackingSolution b = reference::solve_packing_dfs(p);
  EXPECT_EQ(a.total, b.total) << "seed " << GetParam();

  // The decomposed solver is exact too, for every worker count, and the
  // parallel schedule never changes the assembled solution.
  const PackingSolution split1 = solve_packing_split(p, 1);
  const PackingSolution split4 = solve_packing_split(p, 4);
  EXPECT_EQ(split1.total, a.total) << "seed " << GetParam();
  EXPECT_EQ(split4.total, split1.total) << "seed " << GetParam();
  EXPECT_EQ(split4.counts, split1.counts) << "seed " << GetParam();
  EXPECT_EQ(split4.nodes, split1.nodes) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackingRandomCross, ::testing::Range(0, 60));

// ---------------------------------------------------------------------------
// Partitioned packing solve
// ---------------------------------------------------------------------------

TEST(PackingPartition, DisjointItemsSplitIntoSingletons) {
  PackingProblem p;
  p.capacities = {2, 3, 4};
  p.item_resources = {{0}, {1}, {2}};
  const PackingPartition partition = partition_packing(p);
  ASSERT_EQ(partition.subproblems.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(partition.subproblems[s].item_resources.size(), 1u);
    EXPECT_EQ(partition.item_map[s], std::vector<std::size_t>{s});
  }
  // Dense renumbering: each singleton sees exactly its own resource.
  EXPECT_EQ(partition.subproblems[1].capacities, std::vector<Count>{3});
  EXPECT_EQ(partition.subproblems[1].item_resources[0], std::vector<int>{0});
}

TEST(PackingPartition, SharedResourceCouplesTransitively) {
  // 0-1 share r1, 1-2 share r2: one component; 3 is alone.
  PackingProblem p;
  p.capacities = {5, 5, 5, 5};
  p.item_resources = {{0, 1}, {1, 2}, {2}, {3}};
  const PackingPartition partition = partition_packing(p);
  ASSERT_EQ(partition.subproblems.size(), 2u);
  EXPECT_EQ(partition.item_map[0], (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(partition.item_map[1], std::vector<std::size_t>{3});
}

TEST(PackingPartition, SplitSolveMatchesWholeProblem) {
  PackingProblem p;
  p.capacities = {4, 3, 5, 2};
  p.item_resources = {{0, 1}, {1}, {2}, {2, 3}, {3}};
  const PackingSolution whole = solve_packing_ilp(p);
  const PackingSolution split = solve_packing_split(p, 4);
  EXPECT_EQ(split.total, whole.total);
  // Feasibility of the assembled counts.
  std::vector<Count> used(p.capacities.size(), 0);
  for (std::size_t i = 0; i < p.item_resources.size(); ++i) {
    for (int r : p.item_resources[i]) used[static_cast<std::size_t>(r)] += split.counts[i];
  }
  for (std::size_t r = 0; r < used.size(); ++r) EXPECT_LE(used[r], p.capacities[r]);
}

TEST(PackingPartition, SplitHandlesEmptyAndDfs) {
  PackingProblem empty;
  EXPECT_EQ(solve_packing_split(empty, 4).total, 0);

  PackingProblem p;
  p.capacities = {3, 2};
  p.item_resources = {{0}, {1}, {0, 1}};
  EXPECT_EQ(solve_packing_split(p, 2).total, reference::solve_packing_dfs(p).total);
}

}  // namespace
}  // namespace wharf::ilp
