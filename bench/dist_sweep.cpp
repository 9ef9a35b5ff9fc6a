// Distributed-sweep benchmark: the same random candidate list scored
// through dist::run_sweep with 1 versus 4 spawned `wharf serve` workers
// (one evaluation job each), on a bounded near-unit-utilization fixture
// whose per-candidate cost (~50-120ms) dwarfs the spawn/protocol overhead.
//
// What the coordinator must prove here:
//  * the merged 4-worker result is field-identical to the 1-worker run
//    (the determinism contract of docs/distributed.md) — gated in CI
//    unconditionally;
//  * with >= 4 CPUs the 4-worker sweep is >= 2.5x faster end to end —
//    gated in CI (the runners have 4 vCPUs), skipped on smaller hosts
//    where wall-clock parallelism physically cannot appear (this repo's
//    dev container has one core; cf. serve_concurrent's deterministic
//    counters for the same reason).
//
// Emits machine-readable "BENCH {...}" JSON lines next to the tables;
// the telemetry fields (stolen_units, reissued_units, duplicate_results)
// surface what the scheduler did so regressions in stealing show up in
// the uploaded artifacts even when the time gate is skipped.
//
//   $ ./bench_dist_sweep

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/arrival.hpp"
#include "core/system.hpp"
#include "dist/coordinator.hpp"
#include "io/json.hpp"
#include "io/tables.hpp"
#include "search/priority_search.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

using namespace wharf;

/// How much faster 4 workers must be than 1 before the CI gate passes
/// (only enforced when the host has >= 4 CPUs).
constexpr double kSpeedupGate = 2.5;

System sweep_base() {
  // Four synchronous two-task chains with periods near 10^6 that share
  // no common factor, plus a rarely-activated overload chain, at
  // combined long-run load 1 - 1.0e-6.  Every busy window is bounded,
  // but the lowest-priority chain's spans a hyperperiod-scale stretch:
  // its K_b is 10^5 activations, so a random candidate (whose windows
  // share almost nothing with its neighbors' store artifacts) costs
  // about 50-120 ms to score at k=10 on a 4-vCPU host.  That makes the
  // sweep evaluation-dominated — the regime the coordinator exists
  // for — while 40 candidates keep the 1-worker baseline at a few
  // seconds.  Bounded on purpose: above load 1 the K_b search stops at
  // its divergence certificate within microseconds.  Built by hand: the
  // integer-rounded random generator cannot dial utilization this close
  // to (but below) 1.
  std::vector<Chain> chains;
  const Time periods[4] = {1'000'003, 1'000'033, 1'000'037, 1'000'039};
  const Time wcets[4] = {125'001, 125'004, 125'004, 125'004};
  const char* names[4] = {"a", "b", "c", "d"};
  for (int i = 0; i < 4; ++i) {
    Chain::Spec spec;
    spec.name = names[i];
    spec.arrival = periodic(periods[i]);
    spec.deadline = periods[i];
    spec.tasks = {Task{util::cat(names[i], 1), Priority(1 + 2 * i), wcets[i]},
                  Task{util::cat(names[i], 2), Priority(2 + 2 * i), wcets[i]}};
    chains.emplace_back(std::move(spec));
  }
  Chain::Spec ov;
  ov.name = "ov";
  ov.arrival = sporadic(100'000'000);
  ov.overload = true;
  ov.tasks = {Task{"o1", Priority(9), 100}};
  chains.emplace_back(std::move(ov));
  return System("dist_sweep", std::move(chains));
}

struct Run {
  double seconds = 0;
  dist::SweepOutcome outcome;
};

/// One timed sweep of `candidates` over `workers` freshly spawned
/// `wharf serve` children.  A sweep failure is a bench bug, not a data
/// point — bail loudly.
Run run_workers(const System& base, const std::vector<std::vector<Priority>>& candidates,
                int workers) {
  std::vector<dist::WorkerSpec> specs(static_cast<std::size_t>(workers));
  for (dist::WorkerSpec& spec : specs) {
    spec.binary = WHARF_BINARY_PATH;
    spec.jobs = 1;
  }
  dist::SweepOptions sweep;
  sweep.k = 10;
  sweep.unit_size = 1;  // one candidate per unit: finest stealing granularity
  util::Stopwatch clock;
  Expected<dist::SweepOutcome> outcome = dist::run_sweep(base, {}, candidates, specs, sweep);
  const double seconds = clock.seconds();
  if (!outcome.has_value()) {
    std::cerr << "bench: sweep failed: " << outcome.status().to_string() << "\n";
    std::exit(1);
  }
  return Run{seconds, std::move(outcome.value())};
}

/// The determinism contract, field by field — the same comparison the
/// fault battery (tests/dist_test.cpp) applies against its oracles.
bool identical(const dist::SweepOutcome& a, const dist::SweepOutcome& b) {
  return a.nominal == b.nominal && a.result.best_priorities == b.result.best_priorities &&
         a.result.best_objective == b.result.best_objective &&
         a.result.evaluations == b.result.evaluations;
}

void emit_bench_json(const char* variant, const Run& run, std::size_t candidates,
                     unsigned cores, double speedup, bool identical_to_single) {
  const dist::SweepTelemetry& t = run.outcome.telemetry;
  std::ostringstream os;
  io::JsonWriter w(os);
  w.begin_object();
  w.key("name");
  w.value("dist_sweep");
  w.key("variant");
  w.value(variant);
  w.key("workers");
  w.value(t.workers);
  w.key("candidates");
  w.value(static_cast<long long>(candidates));
  w.key("units");
  w.value(static_cast<long long>(t.units));
  w.key("seconds");
  w.value(run.seconds);
  w.key("stolen_units");
  w.value(t.stolen_units);
  w.key("reissued_units");
  w.value(t.reissued_units);
  w.key("duplicate_results");
  w.value(t.duplicate_results);
  w.key("worker_deaths");
  w.value(t.worker_deaths);
  w.key("cores");
  w.value(static_cast<long long>(cores));
  w.key("speedup_4w");
  w.value(speedup);
  w.key("identical_to_single");
  w.value(identical_to_single);
  w.end_object();
  std::cout << "BENCH " << os.str() << '\n';
}

void print_tables() {
  constexpr int kCandidates = 40;
  const System base = sweep_base();
  const std::vector<std::vector<Priority>> candidates =
      search::random_candidates(base, kCandidates, 7);
  const unsigned cores = std::thread::hardware_concurrency();

  Run single = run_workers(base, candidates, 1);
  Run quad = run_workers(base, candidates, 4);
  double speedup = quad.seconds > 0 ? single.seconds / quad.seconds : 0.0;
  // The time gate only applies where 4 workers can actually run in
  // parallel.  There, one unlucky schedule on a loaded runner can still
  // depress a single round; fresh rounds are independent, so a bounded
  // retry de-flakes the gate without masking a real regression (a
  // coordinator that serializes its workers fails every attempt).
  if (cores >= 4) {
    for (int attempt = 0; speedup < kSpeedupGate && attempt < 2; ++attempt) {
      std::cerr << "bench: speedup " << speedup << " below gate (attempt " << attempt + 1
                << "), retrying both rounds\n";
      single = run_workers(base, candidates, 1);
      quad = run_workers(base, candidates, 4);
      speedup = quad.seconds > 0 ? single.seconds / quad.seconds : 0.0;
    }
  }
  const bool same = identical(single.outcome, quad.outcome);

  std::cout << "=== wharf sweep: " << kCandidates
            << " random candidates, 1 vs 4 spawned workers (k=10, unit_size=1) ===\n";
  io::TextTable table(
      {"variant", "workers", "units", "seconds", "stolen", "reissued", "duplicates"});
  const auto row = [&table](const char* variant, const Run& run) {
    const dist::SweepTelemetry& t = run.outcome.telemetry;
    table.add_row({variant, util::cat(t.workers), util::cat(t.units), util::cat(run.seconds),
                   util::cat(t.stolen_units), util::cat(t.reissued_units),
                   util::cat(t.duplicate_results)});
  };
  row("1 worker", single);
  row("4 workers", quad);
  std::cout << table.render();
  std::cout << "speedup 4w vs 1w: " << speedup << "x on " << cores
            << " cores (gate " << kSpeedupGate << "x applies at >= 4); merged result identical: "
            << (same ? "yes" : "NO — BUG") << "\n\n";

  emit_bench_json("1w", single, candidates.size(), cores, 1.0, true);
  emit_bench_json("4w", quad, candidates.size(), cores, speedup, same);
}

void BM_TwoWorkerSweep(benchmark::State& state) {
  // End-to-end wall time of a small 2-worker sweep on a cheap 3-task
  // system — spawn + protocol + merge overhead, not evaluation cost.
  std::vector<Chain> chains;
  Chain::Spec a;
  a.name = "a";
  a.arrival = periodic(100);
  a.deadline = 90;
  a.tasks = {Task{"a1", Priority(1), 10}, Task{"a2", Priority(2), 10}};
  chains.emplace_back(std::move(a));
  Chain::Spec b;
  b.name = "b";
  b.arrival = periodic(200);
  b.deadline = 150;
  b.tasks = {Task{"b1", Priority(3), 20}};
  chains.emplace_back(std::move(b));
  const System base("bm", std::move(chains));
  const std::vector<std::vector<Priority>> candidates = search::exhaustive_candidates(base);
  for (auto _ : state) {
    const Run run = run_workers(base, candidates, 2);
    benchmark::DoNotOptimize(run.outcome.result.evaluations);
  }
}
BENCHMARK(BM_TwoWorkerSweep)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
