// Tests for the wharf::Engine request/response facade: query dispatch,
// the non-throwing Status channel, parallel execution (results must be
// bit-identical to sequential), path queries, and the staged
// ArtifactStore with its per-stage hit/miss diagnostics — in particular
// that mutating one chain invalidates only the affected target's
// artifacts (incremental re-analysis).

#include <gtest/gtest.h>

#include <random>

#include "core/case_studies.hpp"
#include "core/path_analysis.hpp"
#include "engine/engine.hpp"
#include "gen/random_systems.hpp"
#include "io/json.hpp"
#include "io/system_format.hpp"
#include "oracles/path_reference.hpp"
#include "util/worker_pool.hpp"

namespace wharf {
namespace {

using case_studies::date17_case_study;
using case_studies::figure1_system;
using case_studies::kSigmaC;
using case_studies::kSigmaD;
using case_studies::OverloadModel;
using reference::PathAnalyzer;

System case_study() { return date17_case_study(OverloadModel::kRareOverload); }

constexpr std::size_t kBusyWindowStage =
    static_cast<std::size_t>(static_cast<int>(ArtifactStage::kBusyWindow));
constexpr std::size_t kOverloadStage =
    static_cast<std::size_t>(static_cast<int>(ArtifactStage::kOverload));

std::size_t total_lookups(const ReportDiagnostics& d) {
  std::size_t n = 0;
  for (const StageDiagnostics& s : d.stages) n += s.lookups;
  return n;
}

/// Serializes only the query results (diagnostics stripped) so reports
/// can be compared for bit-identical *answers*.
std::string results_json(const AnalysisReport& report) {
  AnalysisReport stripped = report;
  stripped.diagnostics = ReportDiagnostics{};
  return to_json(stripped);
}

TEST(Engine, StandardRequestAnswersEveryQuery) {
  Engine engine;
  const AnalysisRequest request = AnalysisRequest::standard(case_study(), {3, 76, 250});
  const AnalysisReport report = engine.run(request);

  EXPECT_EQ(report.system, "date17_case_study");
  ASSERT_EQ(report.results.size(), request.queries.size());
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.worst_status().is_ok());
  EXPECT_EQ(report.diagnostics.queries_failed, 0u);

  // sigma_d and sigma_c each get latency (2x) + dmm: 6 queries total.
  ASSERT_EQ(report.results.size(), 6u);
  const auto& dmm_c = std::get<DmmAnswer>(report.results[5].answer);
  EXPECT_EQ(dmm_c.chain, "sigma_c");
  ASSERT_EQ(dmm_c.curve.size(), 3u);
  EXPECT_EQ(dmm_c.curve[0].dmm, 3);   // Table II: dmm_c(3) = 3
  EXPECT_EQ(dmm_c.curve[1].dmm, 4);   // dmm_c(76) = 4
  EXPECT_EQ(dmm_c.curve[2].dmm, 5);   // dmm_c(250) = 5

  const auto& lat_d = std::get<LatencyAnswer>(report.results[0].answer);
  EXPECT_EQ(lat_d.chain, "sigma_d");
  EXPECT_FALSE(lat_d.without_overload);
  EXPECT_EQ(lat_d.result.wcl, 175);  // Table I
}

TEST(Engine, UnknownChainYieldsNotFoundNotThrow) {
  Engine engine;
  const AnalysisReport report =
      engine.run(AnalysisRequest{case_study(), {}, {DmmQuery{"sigma_zz", {10}}}});
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].ok());
  EXPECT_EQ(report.results[0].status.code(), StatusCode::kNotFound);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.diagnostics.queries_failed, 1u);
  EXPECT_EQ(report.worst_status().code(), StatusCode::kNotFound);
}

TEST(Engine, OverloadDmmTargetYieldsInvalidArgument) {
  Engine engine;
  const AnalysisReport report =
      engine.run(AnalysisRequest{case_study(), {}, {DmmQuery{"sigma_a", {10}}}});
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.results[0].status.code(), StatusCode::kInvalidArgument);
}

TEST(Engine, MixedFailuresDoNotPoisonTheBatch) {
  Engine engine;
  const AnalysisReport report = engine.run(AnalysisRequest{
      case_study(),
      {},
      {DmmQuery{"sigma_c", {10}}, DmmQuery{"nope", {10}}, LatencyQuery{"sigma_d", false}}});
  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_TRUE(report.results[0].ok());
  EXPECT_EQ(report.results[1].status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(report.results[2].ok());
  EXPECT_EQ(report.diagnostics.queries_failed, 1u);
}

TEST(Engine, WeaklyHardQueryMatchesAnalyzer) {
  Engine engine;
  const AnalysisReport report = engine.run(AnalysisRequest{
      case_study(), {}, {WeaklyHardQuery{"sigma_c", 3, 10}, WeaklyHardQuery{"sigma_c", 2, 10}}});
  const auto& ok3 = std::get<WeaklyHardAnswer>(report.results[0].answer);
  const auto& bad2 = std::get<WeaklyHardAnswer>(report.results[1].answer);
  const TwcaAnalyzer analyzer{case_study()};
  EXPECT_EQ(ok3.satisfied, analyzer.satisfies_weakly_hard(kSigmaC, 3, 10));
  EXPECT_EQ(bad2.satisfied, analyzer.satisfies_weakly_hard(kSigmaC, 2, 10));
  EXPECT_EQ(ok3.dmm, analyzer.dmm(kSigmaC, 10).dmm);
}

TEST(Engine, SimulationCrossValidationFindsNoViolations) {
  Engine engine;
  SimulationQuery query;
  query.horizon = 50'000;
  const AnalysisReport report = engine.run(AnalysisRequest{case_study(), {}, {query}});
  ASSERT_TRUE(report.results[0].ok()) << report.results[0].status.to_string();
  const auto& answer = std::get<SimulationAnswer>(report.results[0].answer);
  EXPECT_TRUE(answer.validated);
  EXPECT_TRUE(answer.violations.empty());
  ASSERT_EQ(answer.chains.size(), 4u);
  EXPECT_GT(answer.chains[static_cast<std::size_t>(kSigmaC)].completed, 0);
}

TEST(Engine, PrioritySearchRandomUsesExactBudget) {
  Engine engine;
  PrioritySearchQuery query;
  query.strategy = PrioritySearchQuery::Strategy::kRandom;
  query.budget = 25;
  query.seed = 7;
  const AnalysisReport report = engine.run(AnalysisRequest{case_study(), {}, {query}});
  ASSERT_TRUE(report.results[0].ok()) << report.results[0].status.to_string();
  const auto& answer = std::get<SearchAnswer>(report.results[0].answer);
  EXPECT_EQ(answer.result.evaluations, 25);
  EXPECT_LE(answer.result.best_objective, answer.nominal);
}

TEST(Engine, RepeatedRequestHitsArtifactCache) {
  Engine engine;
  const AnalysisRequest request = AnalysisRequest::standard(case_study());

  const AnalysisReport first = engine.run(request);
  EXPECT_FALSE(first.diagnostics.cache_hit);
  EXPECT_EQ(first.diagnostics.cache_hits, 0u);
  EXPECT_GT(first.diagnostics.cache_misses, 0u);
  EXPECT_EQ(first.diagnostics.cache_misses, total_lookups(first.diagnostics));
  // Real store lookups, not a 0-or-1 flag: the standard request resolves
  // two busy-window artifacts (full + overload-free) per regular chain,
  // and the case study has two regular chains.
  EXPECT_EQ(first.diagnostics.stages[kBusyWindowStage].lookups, 4u);
  EXPECT_GT(first.diagnostics.stages[kBusyWindowStage].bytes_inserted, 0u);

  const AnalysisReport second = engine.run(request);
  EXPECT_TRUE(second.diagnostics.cache_hit);
  EXPECT_EQ(second.diagnostics.cache_misses, 0u);
  EXPECT_EQ(second.diagnostics.cache_hits, total_lookups(second.diagnostics));
  // Warm runs may resolve *fewer* artifacts than cold ones: a dmm-curve
  // hit short-circuits the whole upstream pipeline for that query.
  EXPECT_GT(second.diagnostics.cache_hits, 0u);
  EXPECT_LE(second.diagnostics.cache_hits, first.diagnostics.cache_misses);
  EXPECT_EQ(second.diagnostics.system_hash, first.diagnostics.system_hash);

  const ArtifactStore::Stats stats = engine.store_stats();
  EXPECT_GT(stats.resident_entries, 0u);
  EXPECT_GT(stats.resident_bytes, 0u);

  // Apart from the cache diagnostics the reports are identical.
  ASSERT_EQ(first.results.size(), second.results.size());
  EXPECT_EQ(results_json(first), results_json(second));
}

TEST(Engine, DifferentOptionsShareUpstreamStages) {
  Engine engine;
  AnalysisRequest request{case_study(), {}, {DmmQuery{"sigma_c", {10}}}};
  (void)engine.run(request);
  request.options.criterion = SchedulabilityCriterion::kExactEq3;
  const AnalysisReport other = engine.run(request);
  // The criterion changes the overload/dmm artifacts, so the request is
  // not a pure hit ...
  EXPECT_FALSE(other.diagnostics.cache_hit);
  EXPECT_GT(other.diagnostics.stages[kOverloadStage].misses, 0u);
  // ... but the upstream busy-window artifacts do not read the
  // criterion and are reused as-is (stage-granular invalidation).
  EXPECT_GT(other.diagnostics.stages[kBusyWindowStage].hits, 0u);
  EXPECT_EQ(other.diagnostics.stages[kBusyWindowStage].misses, 0u);
}

TEST(Engine, WeightBudgetBoundsResidencyViaEviction) {
  // A budget far below the request's artifact weight: the store must
  // keep resident bytes within it by evicting LRU artifacts (or
  // rejecting oversized ones), while answers stay correct.
  Engine small{EngineOptions{1, /*cache_bytes=*/2048, /*store_dir=*/""}};
  Engine unlimited{EngineOptions{1, /*cache_bytes=*/0, /*store_dir=*/""}};
  const AnalysisRequest request = AnalysisRequest::standard(case_study());

  const AnalysisReport constrained = small.run(request);
  const AnalysisReport reference = unlimited.run(request);
  EXPECT_EQ(results_json(constrained), results_json(reference));

  const ArtifactStore::Stats stats = small.store_stats();
  EXPECT_LE(stats.resident_bytes, 2048u);
  std::size_t churn = 0;
  for (const ArtifactStore::StageStats& s : stats.stage) churn += s.evictions + s.rejected;
  EXPECT_GT(churn, 0u);
  EXPECT_GT(unlimited.store_stats().resident_bytes, 2048u);
}

/// The acceptance workload: Fig. 5-style random priority assignments of
/// the case study, one request per sampled system.
std::vector<AnalysisRequest> fig5_workload(int samples, std::uint64_t seed) {
  const System base = case_study();
  std::mt19937_64 rng(seed);
  std::vector<AnalysisRequest> requests;
  requests.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    System sys = gen::with_random_priorities(base, rng);
    requests.push_back(AnalysisRequest{
        std::move(sys),
        {},
        {DmmQuery{"sigma_c", {10}}, DmmQuery{"sigma_d", {10}},
         LatencyQuery{"sigma_c", false}, LatencyQuery{"sigma_d", true}}});
  }
  return requests;
}

/// Answers requests[i] into reports[i] with Engine::run, `threads`
/// requests at a time.
std::vector<AnalysisReport> run_concurrently(Engine& engine,
                                             const std::vector<AnalysisRequest>& requests,
                                             int threads) {
  std::vector<AnalysisReport> reports(requests.size());
  util::parallel_for_index(requests.size(), threads,
                           [&](std::size_t i) { reports[i] = engine.run(requests[i]); });
  return reports;
}

TEST(Engine, BatchParallelReportsBitIdenticalToSequential) {
  const std::vector<AnalysisRequest> requests = fig5_workload(24, 42);

  Engine sequential{EngineOptions{1, EngineOptions{}.cache_bytes, ""}};
  Engine parallel{EngineOptions{4, EngineOptions{}.cache_bytes, ""}};
  const std::vector<AnalysisReport> seq = run_concurrently(sequential, requests, 1);
  const std::vector<AnalysisReport> par = run_concurrently(parallel, requests, 4);

  // Answers are bit-identical for any jobs value.  (Cache telemetry of
  // concurrent requests depends on scheduling: which request computes a
  // shared artifact and which joins or finds it.)
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(results_json(seq[i]), results_json(par[i])) << "report " << i << " diverged";
  }
}

TEST(Engine, BatchSharesCacheAcrossIdenticalSystems) {
  Engine engine{EngineOptions{3, EngineOptions{}.cache_bytes, ""}};
  const AnalysisRequest request{case_study(), {}, {DmmQuery{"sigma_c", {10}}}};
  const std::vector<AnalysisReport> reports =
      run_concurrently(engine, {request, request, request}, 3);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(results_json(reports[0]), results_json(reports[1]));
  EXPECT_EQ(results_json(reports[1]), results_json(reports[2]));
  // A later run sees everything the concurrent runs inserted.
  const AnalysisReport warm = engine.run(request);
  EXPECT_TRUE(warm.diagnostics.cache_hit);
  EXPECT_EQ(warm.diagnostics.cache_misses, 0u);
}

TEST(Engine, JsonReportCarriesStatusAndDiagnostics) {
  Engine engine;
  const AnalysisReport report =
      engine.run(AnalysisRequest{case_study(), {}, {DmmQuery{"sigma_c", {3}}}});
  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"system\":\"date17_case_study\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"dmm\":3"), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit\":false"), std::string::npos);
  EXPECT_NE(json.find("\"cache_misses\":"), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"busy_window\""), std::string::npos);
  EXPECT_NE(json.find("\"ilp\""), std::string::npos);
  EXPECT_NE(json.find("\"system_hash\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Incremental invalidation (the acceptance workload): mutate one chain's
// priority in a >= 8 chain system and re-analyze warm — only the mutated
// target's artifacts may recompute.
// ---------------------------------------------------------------------------

/// Eight regular single-task chains (priorities 10, 20, ..., 80) plus a
/// high-priority sporadic overload chain.  Priorities are spaced so a
/// small per-chain tweak crosses no other chain's priority.
System sweep_system(Priority mutated_chain_priority) {
  std::vector<Chain> chains;
  for (int i = 1; i <= 8; ++i) {
    Chain::Spec spec;
    spec.name = "c" + std::to_string(i);
    spec.arrival = periodic(1000);
    spec.deadline = 900;
    const Priority priority = i == 4 ? mutated_chain_priority : 10 * i;
    spec.tasks = {Task{"t" + std::to_string(i), priority, 5}};
    chains.emplace_back(std::move(spec));
  }
  Chain::Spec overload;
  overload.name = "ov";
  overload.arrival = sporadic(50'000);
  overload.overload = true;
  overload.tasks = {Task{"t_ov", 100, 3}};
  chains.emplace_back(std::move(overload));
  return System("sweep", std::move(chains));
}

TEST(Engine, IncrementalInvalidationRecomputesOnlyAffectedTarget) {
  Engine engine;
  const AnalysisReport cold = engine.run(AnalysisRequest::standard(sweep_system(40)));
  ASSERT_TRUE(cold.ok()) << cold.worst_status().to_string();
  const StageDiagnostics cold_bw = cold.diagnostics.stages[kBusyWindowStage];
  // 8 targets x (full + overload-free).
  EXPECT_EQ(cold_bw.misses, 16u);
  EXPECT_EQ(cold_bw.hits, 0u);

  // Mutate one chain's priority (40 -> 45 crosses no other priority).
  const AnalysisReport warm = engine.run(AnalysisRequest::standard(sweep_system(45)));
  ASSERT_TRUE(warm.ok()) << warm.worst_status().to_string();
  const StageDiagnostics warm_bw = warm.diagnostics.stages[kBusyWindowStage];
  // Strictly fewer busy-window computations than cold: only the mutated
  // target's two variants recompute, every other target's slice is
  // untouched by the tweak.
  EXPECT_LT(warm_bw.misses, cold_bw.misses);
  EXPECT_EQ(warm_bw.misses, 2u);
  EXPECT_EQ(warm_bw.hits, 14u);

  // Reused bit-identically: the warm report equals a cold analysis of
  // the mutated system on a fresh engine, answer for answer.
  Engine fresh;
  const AnalysisReport reference = fresh.run(AnalysisRequest::standard(sweep_system(45)));
  EXPECT_EQ(results_json(warm), results_json(reference));
}

TEST(Engine, ReorderedChainsAreNeverServedStaleArtifacts) {
  // The same chains in two listing orders: cached artifacts embed
  // absolute chain indices, so a warm engine serving the reordered
  // system must not reuse index-bearing artifacts across the orders —
  // answers must match a cold analysis exactly.
  const auto build = [](bool reordered) {
    Chain::Spec u;
    u.name = "u";
    u.arrival = periodic(400);
    u.deadline = 400;
    u.tasks = {Task{"tu", 3, 10}};
    Chain::Spec v;
    v.name = "v";
    v.arrival = sporadic(5000);
    v.overload = true;
    v.tasks = {Task{"tv", 5, 20}};
    Chain::Spec t;
    t.name = "t";
    t.arrival = periodic(300);
    t.deadline = 300;
    t.tasks = {Task{"tt", 1, 30}};
    return reordered ? System{"sys", {Chain(t), Chain(u), Chain(v)}}
                     : System{"sys", {Chain(u), Chain(v), Chain(t)}};
  };
  Engine engine;
  (void)engine.run(AnalysisRequest::standard(build(false), {5, 10}));
  const AnalysisReport warm = engine.run(AnalysisRequest::standard(build(true), {5, 10}));
  Engine fresh;
  const AnalysisReport cold = fresh.run(AnalysisRequest::standard(build(true), {5, 10}));
  EXPECT_EQ(results_json(warm), results_json(cold));
}

TEST(Engine, IncrementalInvalidationAcrossCriterionKeepsBusyWindows) {
  Engine engine;
  (void)engine.run(AnalysisRequest::standard(sweep_system(40)));
  AnalysisRequest exact = AnalysisRequest::standard(sweep_system(40));
  exact.options.criterion = SchedulabilityCriterion::kExactEq3;
  const AnalysisReport report = engine.run(exact);
  EXPECT_EQ(report.diagnostics.stages[kBusyWindowStage].misses, 0u);
}

// ---------------------------------------------------------------------------
// Path queries as first-class engine queries
// ---------------------------------------------------------------------------

/// Two linked chains (the path_test fixture shape): c1 -> c2.
System linked_system() {
  const char* text =
      "system linked\n"
      "chain c1 kind=sync activation=periodic(300) deadline=300\n"
      "  task a1 prio=4 wcet=40\n"
      "  task a2 prio=3 wcet=30\n"
      "chain c2 kind=sync activation=periodic(300) deadline=300\n"
      "  task b1 prio=2 wcet=50\n"
      "  task b2 prio=1 wcet=60\n";
  return io::parse_system(text);
}

TEST(Engine, PathLatencyQueryMatchesPathAnalyzer) {
  Engine engine;
  const AnalysisReport report = engine.run(
      AnalysisRequest{linked_system(), {}, {PathLatencyQuery{{"c1", "c2"}}}});
  ASSERT_TRUE(report.results[0].ok()) << report.results[0].status.to_string();
  const auto& answer = std::get<PathLatencyAnswer>(report.results[0].answer);

  const PathAnalyzer analyzer{linked_system()};
  PathSpec spec;
  spec.chains = {0, 1};
  const PathLatencyResult expected = analyzer.latency(spec);
  EXPECT_EQ(answer.result.bounded, expected.bounded);
  EXPECT_EQ(answer.result.wcl, expected.wcl);
  EXPECT_EQ(answer.result.per_chain_wcl, expected.per_chain_wcl);
}

TEST(Engine, PathDmmQueryMatchesPathAnalyzer) {
  Engine engine;
  PathDmmQuery query;
  query.chains = {"c1", "c2"};
  query.deadline = 200;  // < WCL: misses possible
  query.ks = {5, 10};
  const AnalysisReport report = engine.run(AnalysisRequest{linked_system(), {}, {query}});
  ASSERT_TRUE(report.results[0].ok()) << report.results[0].status.to_string();
  const auto& answer = std::get<PathDmmAnswer>(report.results[0].answer);
  ASSERT_EQ(answer.curve.size(), 2u);

  const PathAnalyzer analyzer{linked_system()};
  PathSpec spec;
  spec.chains = {0, 1};
  spec.deadline = 200;
  for (std::size_t i = 0; i < answer.curve.size(); ++i) {
    const PathDmmResult expected = analyzer.dmm(spec, query.ks[i]);
    EXPECT_EQ(answer.curve[i].dmm, expected.dmm) << "k=" << query.ks[i];
    EXPECT_EQ(answer.curve[i].status, expected.status);
    EXPECT_EQ(answer.curve[i].budgets, expected.budgets);
    EXPECT_EQ(answer.curve[i].per_chain, expected.per_chain);
  }
}

TEST(Engine, PathQueryErrorsAreStatusNotThrow) {
  Engine engine;
  const AnalysisReport unknown = engine.run(
      AnalysisRequest{linked_system(), {}, {PathLatencyQuery{{"c1", "nope"}}}});
  EXPECT_EQ(unknown.results[0].status.code(), StatusCode::kNotFound);

  PathDmmQuery no_deadline;
  no_deadline.chains = {"c1", "c2"};
  const AnalysisReport missing = engine.run(
      AnalysisRequest{linked_system(), {}, {no_deadline}});
  EXPECT_EQ(missing.results[0].status.code(), StatusCode::kInvalidArgument);

  const AnalysisReport duplicate = engine.run(
      AnalysisRequest{linked_system(), {}, {PathLatencyQuery{{"c1", "c1"}}}});
  EXPECT_EQ(duplicate.results[0].status.code(), StatusCode::kInvalidArgument);
}

TEST(Engine, PathDmmKGridResolvesEachBudgetedArtifactOnce) {
  Engine engine;
  PathDmmQuery query;
  query.chains = {"c1", "c2"};
  query.deadline = 200;
  query.ks = {2, 3, 5, 8, 10};
  const AnalysisReport report = engine.run(AnalysisRequest{linked_system(), {}, {query}});
  ASSERT_TRUE(report.results[0].ok()) << report.results[0].status.to_string();
  // Budgets do not depend on k, so the five-point grid shares one
  // budgeted sub-pipeline per chain: the busy-window stage resolves the
  // plain and budgeted variants once each, not once per k.
  EXPECT_LE(report.diagnostics.stages[kBusyWindowStage].lookups, 4u);
}

TEST(Engine, PathQueriesShareArtifactsWithPlainQueries) {
  Engine engine;
  // Warm the per-chain latency artifacts through plain queries ...
  (void)engine.run(AnalysisRequest{
      linked_system(), {}, {LatencyQuery{"c1", false}, LatencyQuery{"c2", false}}});
  // ... then a path latency query must run entirely off the store.
  const AnalysisReport path = engine.run(
      AnalysisRequest{linked_system(), {}, {PathLatencyQuery{{"c1", "c2"}}}});
  EXPECT_TRUE(path.diagnostics.cache_hit);
  EXPECT_EQ(path.diagnostics.cache_misses, 0u);
}

// ---------------------------------------------------------------------------
// Query-parallel determinism through the engine
// ---------------------------------------------------------------------------

TEST(Engine, ParallelQueriesBitIdenticalToSequential) {
  // Two overload chains give the packing real decomposable structure;
  // the full standard request plus a dense dmm grid exercises the ILP
  // stage repeatedly.
  gen::RandomSystemSpec spec;
  spec.min_chains = 3;
  spec.max_chains = 4;
  spec.overload_chains = 2;
  spec.deadline_factor = 0.8;
  std::mt19937_64 rng(2024);

  for (int sample = 0; sample < 6; ++sample) {
    const System sys = gen::random_system(spec, rng);
    AnalysisRequest request = AnalysisRequest::standard(sys, {1, 5, 10, 20});
    Engine sequential{EngineOptions{1, EngineOptions{}.cache_bytes, ""}};
    Engine parallel{EngineOptions{4, EngineOptions{}.cache_bytes, ""}};
    const AnalysisReport seq = sequential.run(request);
    const AnalysisReport par = parallel.run(request);
    EXPECT_EQ(to_json(seq), to_json(par)) << "sample " << sample;
  }
}

// ---------------------------------------------------------------------------
// One packing path: engine and analyzer agree field for field
// ---------------------------------------------------------------------------

/// The case studies plus seeded random systems with two and three
/// overload chains (several overload chains give packing problems that
/// decompose into independent parts).
std::vector<System> packing_identity_systems() {
  std::vector<System> systems = {figure1_system(),
                                 date17_case_study(OverloadModel::kLiteralSporadic),
                                 date17_case_study(OverloadModel::kRareOverload)};
  gen::RandomSystemSpec spec;
  spec.min_chains = 2;
  spec.max_chains = 4;
  spec.utilization = 0.8;
  spec.deadline_factor = 0.8;
  spec.overload_gap = 4'000;
  spec.overload_wcet_max = 60;
  std::mt19937_64 rng(2023);
  for (int i = 0; i < 24; ++i) {
    spec.overload_chains = 2 + i % 2;
    systems.push_back(gen::random_system(spec, rng, "identity" + std::to_string(i)));
  }
  return systems;
}

TEST(Engine, DmmFieldIdenticalToAnalyzer) {
  const std::vector<Count> ks = {3, 10, 50};
  std::size_t compared = 0;
  std::size_t multi_part_problems = 0;
  for (const System& system : packing_identity_systems()) {
    Engine engine;
    const TwcaAnalyzer analyzer{system};
    for (const int c : system.regular_indices()) {
      if (!system.chain(c).deadline().has_value()) continue;
      const std::string& name = system.chain(c).name();
      const AnalysisReport report = engine.run(AnalysisRequest{system, {}, {DmmQuery{name, ks}}});
      ASSERT_TRUE(report.results[0].ok()) << report.results[0].status.to_string();
      const auto& curve = std::get<DmmAnswer>(report.results[0].answer).curve;
      ASSERT_EQ(curve.size(), ks.size());

      // The stage functions with a solver that counts the independent
      // parts of each packing problem the analysis solves.
      const InterferenceContext context = make_interference_context(system, c);
      const LatencyResult latency = latency_analysis(system, context);
      const TargetArtifacts artifacts =
          build_target_artifacts(system, c, context, latency, TwcaOptions{});
      const PackingSolver counting = [&](const ilp::PackingProblem& problem) {
        if (ilp::partition_packing(problem).subproblems.size() >= 2) ++multi_part_problems;
        return ilp::solve_packing(problem);
      };

      for (std::size_t i = 0; i < ks.size(); ++i) {
        const std::string expected = io::to_json(analyzer.dmm(c, ks[i]));
        EXPECT_EQ(io::to_json(curve[i]), expected)
            << system.name() << " chain " << name << " k=" << ks[i];
        EXPECT_EQ(io::to_json(dmm_from_artifacts(system, c, latency, artifacts, ks[i],
                                                 TwcaOptions{}, counting)),
                  expected)
            << system.name() << " chain " << name << " k=" << ks[i];
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 60u);
  // Without problems of two or more parts, splitting could not change a
  // field and the identity above would prove nothing about it.
  EXPECT_GT(multi_part_problems, 0u);
}

}  // namespace
}  // namespace wharf
