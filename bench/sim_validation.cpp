// Empirical validation harness: simulates the case study (and random
// systems) under adversarial and randomized arrivals and checks every
// analytic bound against observed behaviour — the reproduction's
// counterpart of the paper's "validated on a realistic case study ...
// and derived synthetic test cases".  Also benchmarks simulator
// throughput.
//
//   $ ./bench_sim_validation

#include <benchmark/benchmark.h>

#include <iostream>

#include "core/case_studies.hpp"
#include "core/twca.hpp"
#include "engine/engine.hpp"
#include "gen/random_systems.hpp"
#include "io/tables.hpp"
#include "sim/arrival_sequence.hpp"
#include "sim/simulator.hpp"
#include "util/strings.hpp"

namespace {

using namespace wharf;
using namespace wharf::case_studies;

void print_tables() {
  const System system = date17_case_study(OverloadModel::kRareOverload);
  Engine engine;

  // One engine request covers both simulation runs (windows 10 and 76,
  // each cross-validated against the analytic bounds) plus the bounds
  // themselves; all five queries share the cached per-system artifacts.
  const Time horizon = 500'000;
  SimulationQuery sim10;
  sim10.horizon = horizon;
  sim10.check_k = 10;
  SimulationQuery sim76 = sim10;
  sim76.check_k = 76;
  const AnalysisReport report = engine.run(AnalysisRequest{
      system,
      {},
      {sim10, sim76, LatencyQuery{"sigma_c", false}, LatencyQuery{"sigma_d", false},
       DmmQuery{"sigma_c", {10, 76}}, DmmQuery{"sigma_d", {10, 76}}}});
  const auto& run10 = std::get<SimulationAnswer>(report.results[0].answer);
  const auto& run76 = std::get<SimulationAnswer>(report.results[1].answer);

  std::cout << "=== Case study under greedy (densest legal) arrivals, horizon "
            << horizon << " ===\n";
  io::TextTable table({"chain", "instances", "sim max latency", "WCL bound", "sim misses",
                       "sim max misses/10", "dmm(10)", "sim max misses/76", "dmm(76)"});
  for (int c : {kSigmaC, kSigmaD}) {
    const auto& cr = run10.chains[static_cast<std::size_t>(c)];
    const auto& lat = std::get<LatencyAnswer>(report.results[c == kSigmaC ? 2 : 3].answer);
    const auto& dmm = std::get<DmmAnswer>(report.results[c == kSigmaC ? 4 : 5].answer);
    table.add_row({cr.chain, util::cat(cr.completed), util::cat(cr.max_latency),
                   util::cat(lat.result.wcl), util::cat(cr.miss_count),
                   util::cat(cr.max_window_misses), util::cat(dmm.curve[0].dmm),
                   util::cat(run76.chains[static_cast<std::size_t>(c)].max_window_misses),
                   util::cat(dmm.curve[1].dmm)});
  }
  std::cout << table.render();
  std::cout << "cross-validation: " << (run10.validated && run76.validated ? "passed" : "FAILED")
            << " (" << run10.violations.size() + run76.violations.size() << " violations)\n";
  std::cout << "All observed values are dominated by their bounds (soundness), and the\n"
               "sigma_c latency bound is hit exactly at the critical instant\n"
               "(tightness of Theorem 2 on this system).\n\n";

  // Random systems: count soundness violations (must be zero).  One
  // engine run per sampled system, three cross-validated simulation
  // windows each (the three run on the worker pool).
  gen::RandomSystemSpec spec;
  spec.utilization = 0.6;
  spec.overload_gap = 20'000;
  std::mt19937_64 rng(31337);
  std::vector<AnalysisRequest> sweep;
  sweep.reserve(50);
// GCC 12 reports a spurious -Wmaybe-uninitialized deep inside the Query
// variant's inlined move when push_back relocates (no real path reads
// uninitialized storage; fixed in GCC 13).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
  for (int i = 0; i < 50; ++i) {
    AnalysisRequest request{gen::random_system(spec, rng), {}, {}};
    request.queries.reserve(3);
    for (const Count k : {1, 5, 10}) {
      SimulationQuery query;
      query.horizon = 60'000;
      query.check_k = k;
      request.queries.push_back(query);
    }
    sweep.push_back(std::move(request));
  }
#pragma GCC diagnostic pop
  Engine sweep_engine{EngineOptions{0, EngineOptions{}.cache_bytes}};  // all hardware threads

  int checks = 0;
  int violations = 0;
  for (const AnalysisRequest& request : sweep) {
    const AnalysisReport r = sweep_engine.run(request);
    for (const QueryResult& q : r.results) {
      const auto& answer = std::get<SimulationAnswer>(q.answer);
      ++checks;
      violations += static_cast<int>(answer.violations.size());
      for (const std::string& v : answer.violations) {
        std::cout << "VIOLATION in " << r.system << ": " << v << '\n';
      }
    }
  }
  io::TextTable rnd({"metric", "value"});
  rnd.add_row({"random systems simulated", util::cat(sweep.size())});
  rnd.add_row({"cross-validated sim runs", util::cat(checks)});
  rnd.add_row({"soundness violations", util::cat(violations)});
  std::cout << "=== Random-system soundness sweep ===\n" << rnd.render() << '\n';
}

void BM_SimulateCaseStudy(benchmark::State& state) {
  const System system = date17_case_study();
  const Time horizon = state.range(0);
  std::vector<std::vector<Time>> arrivals;
  for (int c = 0; c < system.size(); ++c) {
    arrivals.push_back(sim::greedy_arrivals(system.chain(c).arrival(), 0, horizon));
  }
  std::size_t instances = 0;
  for (auto _ : state) {
    const sim::SimResult r = sim::simulate(system, arrivals);
    instances += r.chains[0].instances.size();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instances));
}
BENCHMARK(BM_SimulateCaseStudy)->Arg(10'000)->Arg(100'000)->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

void BM_SimulateWithTrace(benchmark::State& state) {
  const System system = date17_case_study();
  std::vector<std::vector<Time>> arrivals;
  for (int c = 0; c < system.size(); ++c) {
    arrivals.push_back(sim::greedy_arrivals(system.chain(c).arrival(), 0, 100'000));
  }
  sim::SimOptions options;
  options.record_trace = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate(system, arrivals, options));
  }
}
BENCHMARK(BM_SimulateWithTrace)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
