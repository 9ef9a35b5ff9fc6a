// Core-solver benchmark: the data-oriented busy-window kernel (flat
// ArrivalTable lookups, warm-started fixed points, allocation-free
// iterations) against the preserved pre-flattening implementation
// (wharf::reference — virtual eta/delta dispatch, cold Kleene starts),
// on a priority-sweep workload covering every arrival model family.
//
// Each candidate permutes the task priorities of a ~0.99-utilization
// system with periodic, jittered, sporadic, delta-curve and burst
// chains (plus an asynchronous chain and an overload chain), and every
// regular chain is solved twice per candidate: full and overload-free —
// exactly the per-target work of a standard engine request.
//
// A second, near-saturation sweep permutes the priorities of a system
// whose lowest-priority chain charges a long-run load above 1: there the
// reference search runs to its K_b cap while the flat kernel stops at
// its divergence certificate.
//
// Emits machine-readable "BENCH {...}" JSON lines next to the tables;
// CI gates on `identical_to_reference` (field-by-field LatencyResult
// equality across the whole sweep), on `speedup_vs_reference >= 2` and
// on an absolute solves/sec floor, and for the near-saturation record on
// `identical_classification` and `speedup_vs_reference >= 20`.
//
//   $ ./bench_core_solver

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/busy_window.hpp"
#include "core/system.hpp"
#include "core/twca.hpp"
#include "gen/random_systems.hpp"
#include "io/json.hpp"
#include "io/tables.hpp"
#include "oracles/busy_window_reference.hpp"
#include "tests/support/saturated_system.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

using namespace wharf;

/// A high-utilization system exercising all five arrival model families
/// (flat dense-prefix, tail-anchor and residue-maximization table paths
/// alike), an asynchronous chain (self header pile-up term) and one
/// sporadic overload chain.
System sweep_system() {
  std::vector<Chain> chains;
  auto chain = [](std::string name, ArrivalModelPtr arrival, std::vector<Task> tasks,
                  Time deadline, ChainKind kind = ChainKind::kSynchronous) {
    Chain::Spec spec;
    spec.name = std::move(name);
    spec.kind = kind;
    spec.arrival = std::move(arrival);
    spec.deadline = deadline;
    spec.tasks = std::move(tasks);
    return Chain(std::move(spec));
  };
  chains.push_back(chain("per", periodic(400), {Task{"p0", 1, 50}, Task{"p1", 2, 45}}, 400));
  chains.push_back(chain("jit", periodic_jitter(800, 1600, 300),
                         {Task{"j0", 3, 55}, Task{"j1", 4, 50}}, 800));
  chains.push_back(chain("spo", sporadic(500), {Task{"s0", 5, 60}, Task{"s1", 6, 52}}, 500));
  chains.push_back(chain("cur", delta_curve({0, 120, 250, 400, 560}, 350),
                         {Task{"c0", 7, 35}, Task{"c1", 8, 33}}, 700));
  chains.push_back(chain("bur", sporadic_burst(1200, 3, 60),
                         {Task{"b0", 9, 28}, Task{"b1", 10, 22}}, 1200));
  chains.push_back(chain("asy", periodic(900), {Task{"a0", 11, 40}, Task{"a1", 12, 35}}, 900,
                         ChainKind::kAsynchronous));
  Chain::Spec overload;
  overload.name = "ov";
  overload.arrival = sporadic(25'000);
  overload.overload = true;
  overload.tasks = {Task{"o0", 13, 60}};
  chains.emplace_back(std::move(overload));
  return System("core_sweep", std::move(chains));
}

/// Field-by-field LatencyResult equality — the bit-identity criterion.
bool same_result(const LatencyResult& a, const LatencyResult& b) {
  return a.bounded == b.bounded && a.reason == b.reason && a.K == b.K &&
         a.busy_times == b.busy_times && a.wcl == b.wcl && a.worst_q == b.worst_q &&
         a.misses_per_window == b.misses_per_window && a.schedulable == b.schedulable;
}

/// The criterion for searches that may be cut short: the same
/// classification, and field-by-field equality when bounded (an
/// unbounded result carries only its reason, which names its cause).
bool same_classification(const LatencyResult& a, const LatencyResult& b) {
  return a.bounded == b.bounded && (!a.bounded || same_result(a, b));
}

struct SweepOutcome {
  double seconds = 0;
  long long solves = 0;
  std::vector<LatencyResult> results;

  [[nodiscard]] double solves_per_sec() const {
    return seconds > 0 ? static_cast<double>(solves) / seconds : 0.0;
  }
};

/// Runs the sweep through one implementation: `flat` picks the
/// data-oriented kernel, otherwise the reference path.
SweepOutcome run_sweep(const std::vector<System>& candidates, bool flat,
                       Count max_busy_windows = 5'000) {
  AnalysisOptions options;
  options.max_busy_windows = max_busy_windows;
  SweepOutcome outcome;
  util::Stopwatch clock;
  for (const System& sys : candidates) {
    for (int target : sys.regular_indices()) {
      for (const std::vector<int>& exclude :
           {std::vector<int>{}, sys.overload_indices()}) {
        outcome.results.push_back(flat ? latency_analysis(sys, target, options, exclude)
                                       : reference::latency_analysis(sys, target, options,
                                                                     exclude));
        ++outcome.solves;
      }
    }
  }
  outcome.seconds = clock.seconds();
  return outcome;
}

void emit_bench_json(const char* variant, const SweepOutcome& o, double speedup,
                     bool identical) {
  std::ostringstream os;
  io::JsonWriter w(os);
  w.begin_object();
  w.key("name");
  w.value("core_solver");
  w.key("variant");
  w.value(variant);
  w.key("solves");
  w.value(o.solves);
  w.key("seconds");
  w.value(o.seconds);
  w.key("solves_per_sec");
  w.value(o.solves_per_sec());
  w.key("speedup_vs_reference");
  w.value(speedup);
  w.key("identical_to_reference");
  w.value(identical);
  w.end_object();
  std::cout << "BENCH " << os.str() << '\n';
}

void print_tables() {
  constexpr int kCandidates = 60;
  const System base = sweep_system();
  std::vector<System> candidates;
  candidates.push_back(base);
  std::mt19937_64 rng(17);
  for (int i = 1; i < kCandidates; ++i) {
    candidates.push_back(gen::with_random_priorities(base, rng));
  }

  const SweepOutcome reference = run_sweep(candidates, /*flat=*/false);
  const SweepOutcome flat = run_sweep(candidates, /*flat=*/true);
  const double speedup =
      flat.seconds > 0 ? reference.seconds / flat.seconds : 0.0;
  bool identical = flat.results.size() == reference.results.size();
  for (std::size_t i = 0; identical && i < flat.results.size(); ++i) {
    identical = same_result(flat.results[i], reference.results[i]);
  }

  std::cout << "=== Core solver: flat arrival tables vs. virtual-dispatch reference ("
            << kCandidates << " priority permutations, all arrival families) ===\n";
  io::TextTable table({"variant", "solves", "seconds", "solves/s"});
  table.add_row({"reference (virtual dispatch, cold starts)", util::cat(reference.solves),
                 util::cat(reference.seconds), util::cat(reference.solves_per_sec())});
  table.add_row({"flat (arrival tables, warm starts)", util::cat(flat.solves),
                 util::cat(flat.seconds), util::cat(flat.solves_per_sec())});
  std::cout << table.render();
  std::cout << "speedup flat vs reference: " << speedup
            << "x; answers bit-identical: " << (identical ? "yes" : "NO — BUG") << "\n\n";

  emit_bench_json("reference", reference, 1.0, true);
  emit_bench_json("flat", flat, speedup, identical);
}

void print_saturated_tables() {
  constexpr int kCandidates = 20;
  constexpr Count kCap = 20'000;
  const System base = testsupport::saturated_system();
  std::vector<System> candidates;
  std::mt19937_64 rng(23);
  for (int i = 0; i < kCandidates; ++i) {
    // A random permutation with the lowest priority moved to a task of
    // chain a (flat task index 0 or 1).
    std::vector<Priority> priorities = gen::shuffled_priorities(base.task_count(), rng);
    const auto lowest = std::find(priorities.begin(), priorities.end(), Priority(1));
    std::swap(*lowest, priorities[static_cast<std::size_t>(i % 2)]);
    candidates.push_back(base.with_priorities(priorities));
  }

  const SweepOutcome reference = run_sweep(candidates, /*flat=*/false, kCap);
  const SweepOutcome flat = run_sweep(candidates, /*flat=*/true, kCap);
  const double speedup = flat.seconds > 0 ? reference.seconds / flat.seconds : 0.0;
  bool identical = flat.results.size() == reference.results.size();
  for (std::size_t i = 0; identical && i < flat.results.size(); ++i) {
    identical = same_classification(flat.results[i], reference.results[i]);
  }
  const auto unbounded_in = [](const SweepOutcome& o) {
    return static_cast<long long>(std::count_if(o.results.begin(), o.results.end(),
                                                [](const LatencyResult& r) { return !r.bounded; }));
  };
  const long long unbounded = unbounded_in(flat);

  std::cout << "=== Core solver near saturation: divergence certificate vs. capped reference ("
            << kCandidates << " priority permutations, K_b cap " << kCap << ") ===\n";
  io::TextTable table({"variant", "solves", "unbounded", "seconds", "solves/s"});
  table.add_row({"reference (runs to the cap)", util::cat(reference.solves),
                 util::cat(unbounded_in(reference)), util::cat(reference.seconds),
                 util::cat(reference.solves_per_sec())});
  table.add_row({"flat (divergence certificate)", util::cat(flat.solves), util::cat(unbounded),
                 util::cat(flat.seconds), util::cat(flat.solves_per_sec())});
  std::cout << table.render();
  std::cout << "speedup flat vs reference: " << speedup
            << "x; classification identical: " << (identical ? "yes" : "NO — BUG") << "\n\n";

  std::ostringstream os;
  io::JsonWriter w(os);
  w.begin_object();
  w.key("name");
  w.value("core_solver");
  w.key("variant");
  w.value("near_saturation");
  w.key("solves");
  w.value(flat.solves);
  w.key("unbounded");
  w.value(unbounded);
  w.key("seconds");
  w.value(flat.seconds);
  w.key("reference_seconds");
  w.value(reference.seconds);
  w.key("solves_per_sec");
  w.value(flat.solves_per_sec());
  w.key("speedup_vs_reference");
  w.value(speedup);
  w.key("identical_classification");
  w.value(identical);
  w.end_object();
  std::cout << "BENCH " << os.str() << '\n';
}

void BM_FlatLatency(benchmark::State& state) {
  const System sys = sweep_system();
  AnalysisOptions options;
  options.max_busy_windows = 5'000;
  const int target = sys.regular_indices().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(latency_analysis(sys, target, options));
  }
}
BENCHMARK(BM_FlatLatency);

void BM_ReferenceLatency(benchmark::State& state) {
  const System sys = sweep_system();
  AnalysisOptions options;
  options.max_busy_windows = 5'000;
  const int target = sys.regular_indices().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::latency_analysis(sys, target, options));
  }
}
BENCHMARK(BM_ReferenceLatency);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  print_saturated_tables();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
