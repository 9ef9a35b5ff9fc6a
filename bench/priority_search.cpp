// Priority-assignment synthesis harness (extension motivated by the
// paper's Experiment 2): hill climbing over pairwise priority swaps,
// scored cold (ReferenceEvaluator — the pre-refactor path, one
// standalone TwcaAnalyzer per candidate) vs. warm (PipelineEvaluator —
// the production path, candidates scored through a shared
// ArtifactStore, so a swap re-solves only the slices it changed).  The
// neighborhood fixture is an 8-chain system, the design-space shape the
// store was built for (cf. bench_cache_effectiveness's sweep).
//
// Emits machine-readable "BENCH {...}" JSON lines next to the
// human-readable tables, so the perf trajectory of the search layer can
// be tracked across commits (CI uploads them as BENCH_priority_search):
//  * `identical_to_cold` — warm search results are bit-identical to the
//    cold sequential objective on the same seeds (hard requirement);
//  * `busy_window_reuse` — fraction of busy-window solves the warm path
//    skips: its every lookup is a solve the cold path performs, so
//    reuse = hits / lookups is exactly "solves avoided vs. cold"
//    (acceptance bar: >= 0.5);
//  * `speedup_vs_cold` — wall-clock ratio; CI gates it at >= 1.0 (on
//    this µs-cheap fixture the warm path's fixed per-candidate cost —
//    speculate, 128-bit stage keys, store lookups — must stay below the
//    solves it skips).
//
//   $ ./bench_priority_search

#include <benchmark/benchmark.h>

#include <iostream>
#include <random>
#include <sstream>

#include "core/case_studies.hpp"
#include "engine/engine.hpp"
#include "gen/random_systems.hpp"
#include "io/json.hpp"
#include "io/tables.hpp"
#include "search/priority_search.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

using namespace wharf;
using namespace wharf::case_studies;

constexpr std::size_t kBusyWindowStage =
    static_cast<std::size_t>(static_cast<int>(ArtifactStage::kBusyWindow));

std::string objective_string(const search::Objective& o) {
  return util::cat("(missing=", o.chains_missing, ", dmm=", o.total_dmm, ", wcl=", o.total_wcl,
                   ")");
}

/// Eight regular chains plus two rare overload chains: wide enough that
/// a pairwise swap leaves most targets' model slices untouched.
System neighborhood_fixture() {
  gen::RandomSystemSpec spec;
  spec.min_chains = 8;
  spec.max_chains = 8;
  spec.min_tasks = 1;
  spec.max_tasks = 2;
  spec.utilization = 0.9;
  spec.deadline_factor = 0.95;
  spec.overload_chains = 2;
  spec.overload_tasks_max = 3;
  spec.overload_gap = 8'000;
  spec.overload_wcet_max = 60;
  std::mt19937_64 rng(42);
  return gen::random_system(spec, rng, "neighborhood");
}

search::HillClimbOptions climb_options() {
  search::HillClimbOptions options;
  options.restarts = 2;
  options.max_steps = 6;
  options.seed = 7;
  return options;
}

struct Outcome {
  search::SearchResult result;
  search::EvaluatorStats stats;
  double seconds = 0;

  [[nodiscard]] double busy_window_reuse() const {
    const StageDiagnostics& bw = stats.stages[kBusyWindowStage];
    return bw.lookups == 0 ? 0.0
                           : static_cast<double>(bw.hits) / static_cast<double>(bw.lookups);
  }

  /// Fraction of key digests the candidates' tables carried over from
  /// their parent instead of recomputing (the key-cost lever: a swap
  /// flips few priority comparisons, so most pair digests carry over).
  [[nodiscard]] double slice_reuse() const {
    const std::size_t total = stats.slices.hits + stats.slices.misses;
    return total == 0 ? 0.0 : static_cast<double>(stats.slices.hits) /
                                  static_cast<double>(total);
  }
};

/// Cold baseline: the pre-refactor sequential objective — a standalone
/// analyzer per candidate, nothing reused.
Outcome run_cold(const System& sys) {
  Outcome outcome;
  search::ReferenceEvaluator evaluator(sys, search::EvaluationSpec{10, {}});
  util::Stopwatch clock;
  outcome.result = search::hill_climb(evaluator, climb_options());
  outcome.seconds = clock.seconds();
  outcome.stats = evaluator.stats();
  return outcome;
}

/// Production path: candidates scored through a persistent shared store.
Outcome run_warm(const System& sys, int jobs) {
  Outcome outcome;
  ArtifactStore store;
  search::PipelineEvaluator evaluator(sys, search::EvaluationSpec{10, {}}, {}, store, jobs);
  util::Stopwatch clock;
  outcome.result = search::hill_climb(evaluator, climb_options());
  outcome.seconds = clock.seconds();
  outcome.stats = evaluator.stats();
  return outcome;
}

void emit_bench_json(const char* variant, const Outcome& o, double speedup, bool identical) {
  std::ostringstream os;
  io::JsonWriter w(os);
  w.begin_object();
  w.key("name");
  w.value("priority_search");
  w.key("variant");
  w.value(variant);
  w.key("seconds");
  w.value(o.seconds);
  w.key("evaluations");
  w.value(o.result.evaluations);
  w.key("best");
  w.begin_object();
  w.key("chains_missing");
  w.value(o.result.best_objective.chains_missing);
  w.key("total_dmm");
  w.value(o.result.best_objective.total_dmm);
  w.key("total_wcl");
  w.value(o.result.best_objective.total_wcl);
  w.end_object();
  w.key("identical_to_cold");
  w.value(identical);
  w.key("busy_window_reuse");
  w.value(o.busy_window_reuse());
  w.key("busy_window_lookups");
  w.value(static_cast<long long>(o.stats.stages[kBusyWindowStage].lookups));
  w.key("busy_window_misses");
  w.value(static_cast<long long>(o.stats.stages[kBusyWindowStage].misses));
  const StageDiagnostics store = total(o.stats.stages);
  w.key("store_hits");
  w.value(static_cast<long long>(store.hits));
  w.key("store_misses");
  w.value(static_cast<long long>(store.misses));
  w.key("slice_hits");
  w.value(static_cast<long long>(o.stats.slices.hits));
  w.key("slice_misses");
  w.value(static_cast<long long>(o.stats.slices.misses));
  w.key("slice_reuse");
  w.value(o.slice_reuse());
  w.key("speedup_vs_cold");
  w.value(speedup);
  w.end_object();
  std::cout << "BENCH " << os.str() << '\n';
}

void print_warm_vs_cold() {
  const System sys = neighborhood_fixture();

  const Outcome cold = run_cold(sys);
  const Outcome warm = run_warm(sys, /*jobs=*/1);
  const double speedup = warm.seconds > 0 ? cold.seconds / warm.seconds : 0.0;
  const bool identical = warm.result.best_priorities == cold.result.best_priorities &&
                         warm.result.best_objective == cold.result.best_objective &&
                         warm.result.evaluations == cold.result.evaluations;

  std::cout << "=== Hill climbing, cold (standalone analyzer per candidate) vs. warm\n"
               "    (pipeline-backed evaluator over a shared artifact store) ===\n";
  io::TextTable table(
      {"variant", "seconds", "evaluations", "busy-window reuse", "slice reuse", "best"});
  table.add_row({"cold (reference)", util::cat(cold.seconds),
                 util::cat(cold.result.evaluations), "0 (re-solves all)", "0 (re-keys all)",
                 objective_string(cold.result.best_objective)});
  table.add_row({"warm (pipeline)", util::cat(warm.seconds), util::cat(warm.result.evaluations),
                 util::cat(warm.busy_window_reuse()), util::cat(warm.slice_reuse()),
                 objective_string(warm.result.best_objective)});
  std::cout << table.render();
  std::cout << "speedup warm vs cold: " << speedup
            << "x; results bit-identical: " << (identical ? "yes" : "NO — BUG") << "\n\n";

  emit_bench_json("cold", cold, 1.0, true);
  emit_bench_json("warm", warm, speedup, identical);
}

void print_strategy_table() {
  const System sys = date17_case_study(OverloadModel::kRareOverload);

  // All six strategy/budget configurations as one engine request: the
  // queries are independent and run on the worker pool, all scoring
  // through the engine's shared store.
  AnalysisRequest request{sys, {}, {}};
  std::vector<std::string> labels;
  for (int samples : {10, 100, 1000}) {
    PrioritySearchQuery query;
    query.strategy = PrioritySearchQuery::Strategy::kRandom;
    query.budget = samples;
    query.seed = 7;
    request.queries.push_back(query);
    labels.push_back(util::cat("random(", samples, ")"));
  }
  for (int restarts : {1, 2, 4}) {
    PrioritySearchQuery query;
    query.strategy = PrioritySearchQuery::Strategy::kHillClimb;
    query.restarts = restarts;
    query.budget = 50;
    query.seed = 7;
    request.queries.push_back(query);
    labels.push_back(util::cat("hill_climb(restarts=", restarts, ")"));
  }
  Engine engine{EngineOptions{0, EngineOptions{}.cache_bytes}};  // all hardware threads
  const AnalysisReport report = engine.run(request);

  std::cout << "=== Priority synthesis on the case study (objective: lexicographic\n"
               "    [#chains missing, sum dmm(10), sum WCL], smaller is better) ===\n\n";
  std::cout << "Nominal Figure 4 assignment: "
            << objective_string(std::get<SearchAnswer>(report.results[0].answer).nominal)
            << "\n\n";

  io::TextTable table({"strategy", "evaluations", "best objective", "store hits/misses"});
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const auto& answer = std::get<SearchAnswer>(report.results[i].answer);
    const StageDiagnostics store = total(answer.stats.stages);
    table.add_row({labels[i], util::cat(answer.result.evaluations),
                   objective_string(answer.result.best_objective),
                   util::cat(store.hits, "/", store.misses)});
  }
  std::cout << table.render();
  std::cout << "Hill climbing reaches zero-miss assignments with modest budgets; the\n"
               "shared store makes each neighborhood cost a fraction of its size in\n"
               "busy-window solves.\n\n";
}

void BM_EvaluateAssignment(benchmark::State& state) {
  const System sys = date17_case_study(OverloadModel::kRareOverload);
  const search::EvaluationSpec spec{10, {}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(search::evaluate_assignment(sys, spec));
  }
}
BENCHMARK(BM_EvaluateAssignment);

void BM_HillClimbReference(benchmark::State& state) {
  const System sys = date17_case_study(OverloadModel::kRareOverload);
  search::HillClimbOptions options;
  options.restarts = 1;
  options.max_steps = 3;
  for (auto _ : state) {
    search::ReferenceEvaluator evaluator(sys, search::EvaluationSpec{10, {}});
    benchmark::DoNotOptimize(search::hill_climb(evaluator, options).evaluations);
  }
}
BENCHMARK(BM_HillClimbReference)->Unit(benchmark::kMillisecond);

void BM_HillClimbPipeline(benchmark::State& state) {
  const System sys = date17_case_study(OverloadModel::kRareOverload);
  search::HillClimbOptions options;
  options.restarts = 1;
  options.max_steps = 3;
  for (auto _ : state) {
    ArtifactStore store;
    search::PipelineEvaluator evaluator(sys, search::EvaluationSpec{10, {}}, {}, store, 1);
    benchmark::DoNotOptimize(search::hill_climb(evaluator, options).evaluations);
  }
}
BENCHMARK(BM_HillClimbPipeline)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_warm_vs_cold();
  print_strategy_table();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
