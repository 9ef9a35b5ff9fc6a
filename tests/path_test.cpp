// Tests for path analysis (paper footnote 1): derived output models,
// per-chain deadline budgeting, the Σ-composition bounds, and the linked
// simulation that validates them.

#include <gtest/gtest.h>

#include "core/path_analysis.hpp"
#include "oracles/path_reference.hpp"
#include "sim/arrival_sequence.hpp"
#include "sim/simulator.hpp"
#include "util/expect.hpp"

namespace wharf {
namespace {

using reference::PathAnalyzer;

/// Two-stage pipeline plus an overload chain.  Hand-computed values:
///   stage1: B(1) = 45 + 15 (crit. segment of stage2) + 35 (overload)
///           = 95 = WCL1;  derived output: shift = 95 - 45 = 50.
///   stage2 (declared arrival = derived output model of stage1):
///           B(1) = 45 + 45 (stage1 arbitrary) + 35 = 125 = WCL2.
///   path WCL = 220.
System pipeline_system() {
  Chain::Spec stage1;
  stage1.name = "stage1";
  stage1.arrival = periodic(300);
  stage1.deadline = 300;
  stage1.tasks = {Task{"s1a", 6, 20}, Task{"s1b", 2, 25}};

  Chain::Spec stage2;
  stage2.name = "stage2";
  // Declared activation: placeholder, replaced by the derived model in
  // linked_pipeline_system() below; standalone tests use this directly.
  stage2.arrival = periodic(300);
  stage2.deadline = 300;
  stage2.tasks = {Task{"s2a", 5, 15}, Task{"s2b", 1, 30}};

  Chain::Spec overload;
  overload.name = "ov";
  overload.arrival = sporadic(10'000);
  overload.overload = true;
  overload.tasks = {Task{"ov1", 7, 35}};

  return System("pipeline",
                {Chain(std::move(stage1)), Chain(std::move(stage2)), Chain(std::move(overload))});
}

/// pipeline_system() with stage2's activation replaced by the sound
/// derived output model of stage1.
System linked_pipeline_system() {
  const System base = pipeline_system();
  const LatencyResult lat1 = latency_analysis(base, 0);
  const ArrivalModelPtr derived = derived_output_model(base.chain(0), lat1);

  std::vector<Chain> chains;
  for (int c = 0; c < base.size(); ++c) {
    Chain::Spec spec = base.chain(c).spec();
    if (c == 1) spec.arrival = derived;
    chains.emplace_back(std::move(spec));
  }
  return System(base.name(), std::move(chains));
}

// ---------------------------------------------------------------------------
// Oracle boundary: path_latency/path_dmm compose over PathChainOracle
// ---------------------------------------------------------------------------

/// A recording oracle forwarding to standalone analyses (the default
/// behavior), capturing which budgets the composition hands out.
class RecordingOracle final : public PathChainOracle {
 public:
  explicit RecordingOracle(const System& system) : system_(system) {}

  LatencyResult latency(int chain) override { return latency_analysis(system_, chain); }

  DmmResult dmm_with_budget(int chain, Time budget, Count k) override {
    budgets_seen.push_back(budget);
    const TwcaAnalyzer analyzer{system_.with_deadline(chain, budget)};
    return analyzer.dmm(chain, k);
  }

  std::vector<Time> budgets_seen;

 private:
  const System& system_;
};

TEST(PathOracle, FreeFunctionsMatchPathAnalyzer) {
  const System sys = pipeline_system();
  PathSpec path;
  path.chains = {0, 1};
  path.deadline = 200;  // < 220: misses possible

  RecordingOracle oracle{sys};
  const PathLatencyResult lat = path_latency(sys, path, oracle);
  const PathDmmResult dmm = path_dmm(sys, path, 5, oracle);

  const PathAnalyzer analyzer{sys};
  const PathLatencyResult lat_ref = analyzer.latency(path);
  const PathDmmResult dmm_ref = analyzer.dmm(path, 5);
  EXPECT_EQ(lat.wcl, lat_ref.wcl);
  EXPECT_EQ(lat.per_chain_wcl, lat_ref.per_chain_wcl);
  EXPECT_EQ(dmm.dmm, dmm_ref.dmm);
  EXPECT_EQ(dmm.status, dmm_ref.status);
  EXPECT_EQ(dmm.budgets, dmm_ref.budgets);
}

TEST(PathOracle, BudgetsHandedToOracleSumToDeadline) {
  const System sys = pipeline_system();
  PathSpec path;
  path.chains = {0, 1};
  path.deadline = 200;

  RecordingOracle oracle{sys};
  const PathDmmResult result = path_dmm(sys, path, 5, oracle);
  ASSERT_EQ(oracle.budgets_seen.size(), 2u);
  EXPECT_EQ(oracle.budgets_seen[0] + oracle.budgets_seen[1], 200);
  EXPECT_EQ(oracle.budgets_seen, result.budgets);
}

TEST(SystemWithDeadline, ReplacesOnlyTheTarget) {
  const System sys = pipeline_system();
  const System budgeted = sys.with_deadline(0, 123);
  EXPECT_EQ(budgeted.chain(0).deadline(), std::optional<Time>(123));
  EXPECT_EQ(budgeted.chain(1).deadline(), sys.chain(1).deadline());
  const System removed = sys.with_deadline(1, std::nullopt);
  EXPECT_FALSE(removed.chain(1).deadline().has_value());
  EXPECT_THROW((void)sys.with_deadline(99, 5), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Derived output models
// ---------------------------------------------------------------------------

TEST(DerivedOutput, PeriodicInputShiftsBothCurves) {
  const System sys = pipeline_system();
  const LatencyResult lat = latency_analysis(sys, 0);
  ASSERT_TRUE(lat.bounded);
  EXPECT_EQ(lat.wcl, 95);

  const ArrivalModelPtr out = derived_output_model(sys.chain(0), lat);
  // shift = 95 - 45 = 50: delta_minus(q) = max(0, (q-1)*300 - 50).
  EXPECT_EQ(out->delta_minus(2), 250);
  EXPECT_EQ(out->delta_minus(3), 550);
  // delta_plus(q) = (q-1)*300 + 50 (finite!).
  EXPECT_EQ(out->delta_plus(2), 350);
  EXPECT_EQ(out->delta_plus(5), 1250);
  EXPECT_FALSE(is_infinite(out->delta_plus(100)));
}

TEST(DerivedOutput, SporadicInputKeepsUnboundedPlus) {
  Chain::Spec s;
  s.name = "sporadic_chain";
  s.arrival = sporadic(500);
  s.deadline = 400;
  s.tasks = {Task{"t", 1, 40}};
  const System sys("one", {Chain(std::move(s))});
  const LatencyResult lat = latency_analysis(sys, 0);
  const ArrivalModelPtr out = derived_output_model(sys.chain(0), lat);
  EXPECT_EQ(out->delta_plus(2), kTimeInfinity);
  // WCL == C here (chain alone): no shift at all.
  EXPECT_EQ(out->delta_minus(2), 500);
}

TEST(DerivedOutput, ObservedLinkedArrivalsAreLegalForDerivedModel) {
  // The key soundness property: the completions of stage1 (= linked
  // activations of stage2) must be legal for the derived model.
  const System sys = linked_pipeline_system();
  const ArrivalModelPtr declared = sys.chain(1).arrival_ptr();

  sim::SimOptions options;
  options.links = {sim::ChainLink{0, 1}};
  std::vector<std::vector<Time>> arrivals(3);
  arrivals[0] = sim::periodic_arrivals(300, 0, 30'000);
  arrivals[2] = sim::greedy_arrivals(sys.chain(2).arrival(), 0, 30'000);
  const sim::SimResult r = sim::simulate(sys, arrivals, options);

  std::vector<Time> stage2_activations;
  for (const sim::InstanceRecord& rec : r.chains[1].instances) {
    stage2_activations.push_back(rec.activation);
  }
  EXPECT_EQ(stage2_activations.size(), arrivals[0].size());
  EXPECT_TRUE(sim::is_legal_sequence(stage2_activations, *declared));
}

// ---------------------------------------------------------------------------
// Path analysis
// ---------------------------------------------------------------------------

TEST(PathAnalysis, LatencySumsPerChainWcls) {
  PathAnalyzer analyzer{linked_pipeline_system()};
  PathSpec path;
  path.chains = {0, 1};
  const PathLatencyResult r = analyzer.latency(path);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.per_chain_wcl, (std::vector<Time>{95, 125}));
  EXPECT_EQ(r.wcl, 220);
}

TEST(PathAnalysis, AlwaysMeetsWhenDeadlineCoversSum) {
  PathAnalyzer analyzer{linked_pipeline_system()};
  PathSpec path;
  path.chains = {0, 1};
  path.deadline = 250;
  const PathDmmResult r = analyzer.dmm(path, 10);
  EXPECT_EQ(r.status, DmmStatus::kAlwaysMeets);
  EXPECT_EQ(r.dmm, 0);
}

TEST(PathAnalysis, DmmSumsBudgetedChainDmms) {
  PathAnalyzer analyzer{linked_pipeline_system()};
  PathSpec path;
  path.chains = {0, 1};
  path.deadline = 200;  // < 220: misses possible
  const PathDmmResult r = analyzer.dmm(path, 5);
  EXPECT_EQ(r.status, DmmStatus::kBounded);
  // Proportional budgets: 200 * 95/220 = 86, remainder to stage2 -> 114.
  EXPECT_EQ(r.budgets, (std::vector<Time>{86, 114}));
  // Each stage: slack below the overload cost (35) -> dmm_i(5) = 2.
  EXPECT_EQ(r.per_chain, (std::vector<Count>{2, 2}));
  EXPECT_EQ(r.dmm, 4);
}

TEST(PathAnalysis, ExplicitBudgetsHonoured) {
  PathAnalyzer analyzer{linked_pipeline_system()};
  PathSpec path;
  path.chains = {0, 1};
  path.deadline = 200;
  path.budgets = {100, 100};
  const PathDmmResult r = analyzer.dmm(path, 5);
  EXPECT_EQ(r.status, DmmStatus::kBounded);
  EXPECT_EQ(r.budgets, (std::vector<Time>{100, 100}));
  // stage1 with D=100: WCL 95 <= 100 -> always meets -> 0 misses;
  // stage2 with D=100: slack 100-90=10 < 35 -> dmm 2.
  EXPECT_EQ(r.per_chain, (std::vector<Count>{0, 2}));
  EXPECT_EQ(r.dmm, 2);
}

TEST(PathAnalysis, SingleChainPathDegeneratesToChainAnalysis) {
  PathAnalyzer analyzer{linked_pipeline_system()};
  PathSpec path;
  path.chains = {0};
  path.deadline = 90;  // < WCL 95
  const PathDmmResult r = analyzer.dmm(path, 5);
  EXPECT_EQ(r.status, DmmStatus::kBounded);
  EXPECT_EQ(r.budgets, (std::vector<Time>{90}));
  TwcaAnalyzer chain_analyzer{[] {
    // same system with stage1 deadline 90
    const System base = linked_pipeline_system();
    std::vector<Chain> chains;
    for (int c = 0; c < base.size(); ++c) {
      Chain::Spec spec = base.chain(c).spec();
      if (c == 0) spec.deadline = 90;
      chains.emplace_back(std::move(spec));
    }
    return System(base.name(), std::move(chains));
  }()};
  EXPECT_EQ(r.dmm, chain_analyzer.dmm(0, 5).dmm);
}

TEST(PathAnalysis, Validation) {
  PathAnalyzer analyzer{linked_pipeline_system()};
  PathSpec empty;
  EXPECT_THROW(analyzer.latency(empty), InvalidArgument);

  PathSpec dup;
  dup.chains = {0, 0};
  EXPECT_THROW(analyzer.latency(dup), InvalidArgument);

  PathSpec with_overload;
  with_overload.chains = {0, 2};
  EXPECT_THROW(analyzer.latency(with_overload), InvalidArgument);

  PathSpec no_deadline;
  no_deadline.chains = {0, 1};
  EXPECT_THROW(analyzer.dmm(no_deadline, 5), InvalidArgument);

  PathSpec bad_budgets;
  bad_budgets.chains = {0, 1};
  bad_budgets.deadline = 200;
  bad_budgets.budgets = {50, 100};  // sums to 150, not 200
  EXPECT_THROW(analyzer.dmm(bad_budgets, 5), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Linked simulation vs path bounds
// ---------------------------------------------------------------------------

TEST(PathSimulation, ObservedPathLatencyWithinBound) {
  const System sys = linked_pipeline_system();
  PathAnalyzer analyzer{sys};
  PathSpec path;
  path.chains = {0, 1};
  const PathLatencyResult bound = analyzer.latency(path);
  ASSERT_TRUE(bound.bounded);

  sim::SimOptions options;
  options.links = {sim::ChainLink{0, 1}};
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    std::vector<std::vector<Time>> arrivals(3);
    arrivals[0] = sim::periodic_arrivals(300, static_cast<Time>(seed * 37), 60'000);
    arrivals[2] = sim::random_arrivals(sys.chain(2).arrival(), 0, 60'000, 2'000.0, seed);
    const sim::SimResult r = sim::simulate(sys, arrivals, options);
    for (Time latency : sim::path_latencies(r, path.chains)) {
      EXPECT_LE(latency, bound.wcl) << "seed " << seed;
    }
  }
}

TEST(PathSimulation, LinkValidation) {
  const System sys = linked_pipeline_system();
  std::vector<std::vector<Time>> arrivals(3);
  arrivals[0] = {0};

  sim::SimOptions self_link;
  self_link.links = {sim::ChainLink{0, 0}};
  EXPECT_THROW(sim::simulate(sys, arrivals, self_link), InvalidArgument);

  sim::SimOptions join;
  join.links = {sim::ChainLink{0, 1}, sim::ChainLink{2, 1}};
  EXPECT_THROW(sim::simulate(sys, arrivals, join), InvalidArgument);

  sim::SimOptions cycle;
  cycle.links = {sim::ChainLink{0, 1}, sim::ChainLink{1, 0}};
  EXPECT_THROW(sim::simulate(sys, arrivals, cycle), InvalidArgument);

  sim::SimOptions external_arrivals;
  external_arrivals.links = {sim::ChainLink{0, 1}};
  std::vector<std::vector<Time>> bad = arrivals;
  bad[1] = {5};
  EXPECT_THROW(sim::simulate(sys, bad, external_arrivals), InvalidArgument);
}

TEST(PathSimulation, ForkActivatesBothDownstreams) {
  // head forks into two single-task chains.
  Chain::Spec head;
  head.name = "head";
  head.arrival = periodic(100);
  head.deadline = 100;
  head.tasks = {Task{"h", 3, 10}};
  Chain::Spec left;
  left.name = "left";
  left.arrival = periodic(100);  // declared; fed by link
  left.deadline = 100;
  left.tasks = {Task{"l", 2, 5}};
  Chain::Spec right;
  right.name = "right";
  right.arrival = periodic(100);
  right.deadline = 100;
  right.tasks = {Task{"r", 1, 7}};
  const System sys("fork", {Chain(std::move(head)), Chain(std::move(left)),
                            Chain(std::move(right))});

  sim::SimOptions options;
  options.links = {sim::ChainLink{0, 1}, sim::ChainLink{0, 2}};
  const sim::SimResult r = sim::simulate(sys, {{0, 100}, {}, {}}, options);
  ASSERT_EQ(r.chains[1].instances.size(), 2u);
  ASSERT_EQ(r.chains[2].instances.size(), 2u);
  // head finishes at 10; left (higher prio) runs [10,15); right [15,22).
  EXPECT_EQ(r.chains[1].instances[0].activation, 10);
  EXPECT_EQ(r.chains[1].instances[0].finish, 15);
  EXPECT_EQ(r.chains[2].instances[0].finish, 22);
}

TEST(PathSimulation, PathLatenciesValidation) {
  sim::SimResult r;
  r.chains.resize(2);
  EXPECT_THROW(sim::path_latencies(r, {}), InvalidArgument);
  EXPECT_THROW(sim::path_latencies(r, {5}), InvalidArgument);
  sim::InstanceRecord rec;
  rec.completed = true;
  rec.activation = 0;
  rec.finish = 10;
  r.chains[0].instances.push_back(rec);
  EXPECT_THROW(sim::path_latencies(r, {0, 1}), InvalidArgument);  // count mismatch
  EXPECT_EQ(sim::path_latencies(r, {0}), (std::vector<Time>{10}));
}

}  // namespace
}  // namespace wharf
