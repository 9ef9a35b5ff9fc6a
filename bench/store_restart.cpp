// Warm-restart benchmark: the same analysis workload replayed against
// three engine lifetimes —
//  * cold            — a fresh engine with an empty --store-dir;
//  * warm (stayed up) — the SAME engine immediately replaying the
//    workload, every artifact still resident;
//  * warm (restarted) — a FRESH engine that loaded the snapshot the
//    first engine spilled (StoreSnapshot round trip through disk).
//
// What the persistent store must buy: the restarted engine's solve
// counts match the stayed-up engine's (the snapshot restores busy-window
// results, overload artifacts, dmm curves and packing solutions
// alike — a restart costs one file read, not a re-analysis),
// and every variant's answers are bit-identical to the cold run's (the
// snapshot restores artifacts, never fabricates results).
//
// Emits machine-readable "BENCH {...}" JSON lines next to the table; CI
// gates restart-warm busy-window solves <= 1.1x stayed-up-warm and both
// identical_to_cold flags.
//
//   $ ./bench_store_restart

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "gen/random_systems.hpp"
#include "io/json.hpp"
#include "io/tables.hpp"
#include "tests/support/serve_client.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

using namespace wharf;
using testsupport::results_of;

constexpr std::size_t kBusyWindowStage =
    static_cast<std::size_t>(static_cast<int>(ArtifactStage::kBusyWindow));

/// The workload: one random base system plus priority-shuffled variants
/// of it (the paper's Experiment 2 shape), each analyzed with the
/// standard query set on two k values.  Deterministic by seed.
std::vector<System> workload_systems() {
  std::mt19937_64 rng(2017);
  gen::RandomSystemSpec spec;
  spec.min_chains = 3;
  spec.max_chains = 3;
  spec.min_tasks = 2;
  spec.max_tasks = 3;
  spec.utilization = 0.65;
  const System base = gen::random_system(spec, rng, "restart_base");
  std::vector<System> systems{base};
  for (int i = 0; i < 3; ++i) systems.push_back(gen::with_random_priorities(base, rng));
  return systems;
}

struct Outcome {
  double seconds = 0;
  std::size_t busy_window_solves = 0;  ///< busy-window insertions during the run
  std::size_t artifact_solves = 0;     ///< insertions across all stages
  std::vector<std::string> answers;    ///< answers-only payload per request
};

std::size_t sum_insertions(const ArtifactStore::Stats& stats) {
  std::size_t total = 0;
  for (const ArtifactStore::StageStats& stage : stats.stage) total += stage.insertions;
  return total;
}

/// Replays the workload on `engine`, measuring only the solves the run
/// itself performs (insertions made by a snapshot load at construction
/// happened before the `before` snapshot and are excluded).
Outcome run_workload(Engine& engine, const std::vector<System>& systems) {
  Outcome outcome;
  const ArtifactStore::Stats before = engine.store_stats();
  util::Stopwatch clock;
  for (const System& system : systems) {
    const AnalysisReport report = engine.run(AnalysisRequest::standard(system, {3, 10}));
    outcome.answers.push_back(results_of(to_json(report)));
  }
  outcome.seconds = clock.seconds();
  const ArtifactStore::Stats after = engine.store_stats();
  outcome.busy_window_solves =
      after.stage[kBusyWindowStage].insertions - before.stage[kBusyWindowStage].insertions;
  outcome.artifact_solves = sum_insertions(after) - sum_insertions(before);
  return outcome;
}

void emit_bench_json(const char* variant, const Outcome& o, bool identical_to_cold,
                     double solve_ratio_vs_warm, std::size_t persisted_artifacts,
                     std::size_t load_skipped_corrupt) {
  std::ostringstream os;
  io::JsonWriter w(os);
  w.begin_object();
  w.key("name");
  w.value("store_restart");
  w.key("variant");
  w.value(variant);
  w.key("seconds");
  w.value(o.seconds);
  w.key("busy_window_solves");
  w.value(static_cast<long long>(o.busy_window_solves));
  w.key("artifact_solves");
  w.value(static_cast<long long>(o.artifact_solves));
  w.key("identical_to_cold");
  w.value(identical_to_cold);
  w.key("solve_ratio_vs_warm");
  w.value(solve_ratio_vs_warm);
  w.key("persisted_artifacts");
  w.value(static_cast<long long>(persisted_artifacts));
  w.key("load_skipped_corrupt");
  w.value(static_cast<long long>(load_skipped_corrupt));
  w.end_object();
  std::cout << "BENCH " << os.str() << '\n';
}

void print_tables() {
  const std::vector<System> systems = workload_systems();

  char dir_template[] = "/tmp/wharf_store_restart_XXXXXX";
  const char* dir = ::mkdtemp(dir_template);
  if (dir == nullptr) {
    std::cerr << "bench: mkdtemp failed\n";
    std::exit(1);
  }

  // Cold, then stayed-up warm, on one persistent engine; spill on the
  // way out (exactly what `wharf analyze --store-dir` does per run).
  EngineOptions options;
  options.store_dir = dir;
  Engine first{options};
  const Outcome cold = run_workload(first, systems);
  const Outcome warm = run_workload(first, systems);
  const StoreSaveResult saved = first.persist();
  if (!saved.status.is_ok()) {
    std::cerr << "bench: snapshot save failed: " << saved.status.message() << "\n";
    std::exit(1);
  }

  // Restart-warm: a fresh engine loads the snapshot, then replays.
  Engine second{options};
  const Engine::PersistenceStats& loaded = second.persistence_stats();
  const Outcome restart = run_workload(second, systems);

  std::remove(store_snapshot_path(dir).c_str());
  ::rmdir(dir);

  const bool warm_identical = warm.answers == cold.answers;
  const bool restart_identical = restart.answers == cold.answers;
  // <= against the stayed-up run with +1 slack on both sides so the
  // ratio stays meaningful when the warm run resolves everything (0
  // solves) — the common case this bench exists to prove.
  const double solve_ratio =
      static_cast<double>(restart.busy_window_solves + 1) /
      static_cast<double>(warm.busy_window_solves + 1);

  std::cout << "=== wharf store restart: " << systems.size()
            << "-system workload, cold vs stayed-up-warm vs restart-warm (snapshot: "
            << saved.bytes_written << " bytes, " << saved.records_written << " records) ===\n";
  io::TextTable table(
      {"variant", "seconds", "busy-window solves", "all-stage solves", "identical to cold"});
  table.add_row({"cold (empty store)", util::cat(cold.seconds), util::cat(cold.busy_window_solves),
                 util::cat(cold.artifact_solves), "yes"});
  table.add_row({"warm (stayed up)", util::cat(warm.seconds), util::cat(warm.busy_window_solves),
                 util::cat(warm.artifact_solves), warm_identical ? "yes" : "NO — BUG"});
  table.add_row({"warm (restarted)", util::cat(restart.seconds),
                 util::cat(restart.busy_window_solves), util::cat(restart.artifact_solves),
                 restart_identical ? "yes" : "NO — BUG"});
  std::cout << table.render();
  std::cout << "snapshot restored " << loaded.persisted_artifacts << " artifacts ("
            << loaded.load_skipped_corrupt << " skipped); restart/warm busy-window solve ratio: "
            << solve_ratio << "\n\n";

  emit_bench_json("cold", cold, true, 0.0, 0, 0);
  emit_bench_json("warm", warm, warm_identical, 1.0, 0, 0);
  emit_bench_json("restart", restart, restart_identical, solve_ratio,
                  loaded.persisted_artifacts, loaded.load_skipped_corrupt);
}

void BM_SnapshotLoad(benchmark::State& state) {
  // Verified load (full CRC pass + deserialization + insertion) of the
  // bench workload's snapshot — the fixed cost a warm restart pays.
  const std::vector<System> systems = workload_systems();
  char dir_template[] = "/tmp/wharf_store_bm_XXXXXX";
  const char* dir = ::mkdtemp(dir_template);
  if (dir == nullptr) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  EngineOptions options;
  options.store_dir = dir;
  Engine writer{options};
  for (const System& system : systems) {
    (void)writer.run(AnalysisRequest::standard(system, {3, 10}));
  }
  (void)writer.persist();
  const std::string path = store_snapshot_path(dir);
  for (auto _ : state) {
    ArtifactStore store;
    const StoreLoadResult loaded = store.load(path);
    benchmark::DoNotOptimize(loaded.records_loaded);
  }
  std::remove(path.c_str());
  ::rmdir(dir);
}
BENCHMARK(BM_SnapshotLoad)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
