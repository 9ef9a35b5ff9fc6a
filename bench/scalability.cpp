// Scalability of the analysis on synthetic systems: runtime versus number
// of chains, tasks per chain and number of overload chains, plus the
// cost of long dmm horizons.  (The paper evaluates a 13-task industrial
// system; this harness shows the implementation comfortably scales far
// beyond that.)
//
//   $ ./bench_scalability

#include <benchmark/benchmark.h>

#include <iostream>

#include "core/case_studies.hpp"
#include "core/twca.hpp"
#include "engine/engine.hpp"
#include "gen/random_systems.hpp"
#include "io/tables.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/worker_pool.hpp"

namespace {

using namespace wharf;

System sized_system(int chains, int tasks, int overload, std::uint64_t seed) {
  gen::RandomSystemSpec spec;
  spec.min_chains = chains;
  spec.max_chains = chains;
  spec.min_tasks = tasks;
  spec.max_tasks = tasks;
  spec.utilization = 0.6;
  spec.overload_chains = overload;
  spec.overload_gap = 100'000;
  spec.periods = {500, 1000, 2000, 4000};
  std::mt19937_64 rng(seed);
  return gen::random_system(spec, rng, util::cat("s", chains, "x", tasks));
}

void print_tables() {
  std::cout << "=== Analysis wall time vs system size (single-shot, RelWithDebInfo) ===\n";
  io::TextTable table({"chains x tasks", "overload", "total tasks", "full analysis [us]",
                       "dmm(10) all chains [us]"});
  Engine engine;
  for (const auto& [chains, tasks, overload] :
       std::vector<std::tuple<int, int, int>>{{2, 3, 1}, {4, 4, 1}, {8, 5, 2}, {16, 5, 2},
                                              {32, 6, 3}}) {
    const System sys = sized_system(chains, tasks, overload, 99);
    AnalysisRequest latency_request{sys, {}, {}};
    AnalysisRequest dmm_request{sys, {}, {}};
    for (int c : sys.regular_indices()) {
      latency_request.queries.push_back(LatencyQuery{sys.chain(c).name(), false});
      dmm_request.queries.push_back(DmmQuery{sys.chain(c).name(), {10}});
    }
    util::Stopwatch sw;
    (void)engine.run(latency_request);  // cache miss: computes K/WCL/N_b
    const double latency_us = sw.microseconds();
    sw.reset();
    (void)engine.run(dmm_request);  // cache hit: only the k-dependent part
    const double dmm_us = sw.microseconds();
    table.add_row({util::cat(chains, " x ", tasks), util::cat(overload),
                   util::cat(sys.task_count()), util::cat(static_cast<long long>(latency_us)),
                   util::cat(static_cast<long long>(dmm_us))});
  }
  std::cout << table.render() << '\n';
}

void BM_EngineBatchJobs(benchmark::State& state) {
  // End-to-end throughput: 32 distinct random systems, full latency+dmm
  // standard requests, run concurrently on `jobs` threads (Engine::run
  // is thread-safe), each request fanning its queries over `jobs` too.
  std::vector<AnalysisRequest> requests;
  for (int i = 0; i < 32; ++i) {
    requests.push_back(
        AnalysisRequest::standard(sized_system(4, 4, 1, 200 + static_cast<std::uint64_t>(i))));
  }
  for (auto _ : state) {
    const int jobs = static_cast<int>(state.range(0));
    Engine engine{EngineOptions{jobs, EngineOptions{}.cache_bytes}};
    std::vector<AnalysisReport> reports(requests.size());
    util::parallel_for_index(requests.size(), jobs,
                             [&](std::size_t i) { reports[i] = engine.run(requests[i]); });
    benchmark::DoNotOptimize(reports);
  }
}
BENCHMARK(BM_EngineBatchJobs)->Arg(1)->Arg(2)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_LatencyVsChains(benchmark::State& state) {
  const System sys = sized_system(static_cast<int>(state.range(0)), 4, 1, 7);
  const int target = sys.regular_indices().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(latency_analysis(sys, target));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LatencyVsChains)->RangeMultiplier(2)->Range(2, 32)->Complexity();

void BM_DmmVsOverloadChains(benchmark::State& state) {
  const System sys = sized_system(3, 4, static_cast<int>(state.range(0)), 13);
  for (auto _ : state) {
    TwcaAnalyzer analyzer{sys};
    benchmark::DoNotOptimize(analyzer.dmm(sys.regular_indices().front(), 10));
  }
}
BENCHMARK(BM_DmmVsOverloadChains)->DenseRange(1, 4);

void BM_DmmVsHorizon(benchmark::State& state) {
  // The case study's sigma_c exercises the full Theorem-3 pipeline
  // (Omega + combination packing) at every k.
  const System sys = case_studies::date17_case_study(case_studies::OverloadModel::kRareOverload);
  TwcaAnalyzer analyzer{sys};
  (void)analyzer.dmm(case_studies::kSigmaC, 1);  // warm the k-independent caches
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.dmm(case_studies::kSigmaC, state.range(0)));
  }
}
BENCHMARK(BM_DmmVsHorizon)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
