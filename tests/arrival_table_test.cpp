// Property tests for the data-oriented core: the flat ArrivalTable must
// agree pointwise with the virtual arrival model it was built from
// (eta_plus / delta_minus, over every model family and randomized
// parameters, including the exact delta(q) +- 1 boundary windows), the
// flattened latency analysis must reproduce the preserved reference
// implementation field for field on random systems, and full
// AnalysisReports must stay bit-identical across engine worker counts
// and under a cache too small to retain artifacts.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/arrival.hpp"
#include "core/arrival_table.hpp"
#include "core/busy_window.hpp"
#include "engine/engine.hpp"
#include "gen/random_systems.hpp"
#include "io/system_format.hpp"
#include "oracles/busy_window_reference.hpp"
#include "util/worker_pool.hpp"

namespace wharf {
namespace {

/// One randomized model per family, parameters drawn fresh per call.
std::vector<ArrivalModelPtr> random_models(std::mt19937_64& rng) {
  std::uniform_int_distribution<Time> period(1, 5'000);
  std::uniform_int_distribution<Time> jitter(0, 20'000);
  std::uniform_int_distribution<Time> step(0, 500);
  std::uniform_int_distribution<int> prefix_len(1, 12);
  std::uniform_int_distribution<Count> burst(1, 6);

  std::vector<ArrivalModelPtr> models;
  models.push_back(periodic(period(rng)));

  const Time p = period(rng);
  std::uniform_int_distribution<Time> dmin(1, p);
  models.push_back(periodic_jitter(p, jitter(rng), dmin(rng)));

  models.push_back(sporadic(period(rng)));

  std::vector<Time> prefix;
  Time d = step(rng);
  for (int i = prefix_len(rng); i > 0; --i) {
    prefix.push_back(d);
    d += step(rng);
  }
  models.push_back(delta_curve(std::move(prefix), period(rng)));

  const Count b = burst(rng);
  std::uniform_int_distribution<Time> inner(1, 200);
  const Time gap = inner(rng);
  models.push_back(sporadic_burst((b - 1) * gap + period(rng), b, gap));
  return models;
}

TEST(ArrivalTable, AgreesWithModelPointwise) {
  std::mt19937_64 rng(2024);
  std::uniform_int_distribution<Time> window(0, 200'000);
  for (int round = 0; round < 50; ++round) {
    for (const ArrivalModelPtr& model : random_models(rng)) {
      const ArrivalTable table(model);
      SCOPED_TRACE(model->describe());

      // delta_minus over the dense prefix, the tail, and deep into it.
      for (Count q = 0; q <= 64; ++q) {
        EXPECT_EQ(table.delta_minus(q), model->delta_minus(q)) << "q=" << q;
      }
      for (Count q : {Count{1000}, Count{4095}, Count{4097}, Count{100'000}}) {
        EXPECT_EQ(table.delta_minus(q), model->delta_minus(q)) << "q=" << q;
      }

      // eta_plus at random windows and at the delta(q) +- 1 boundaries,
      // where the strict-inequality convention is easiest to get wrong.
      for (int i = 0; i < 32; ++i) {
        const Time w = window(rng);
        EXPECT_EQ(table.eta_plus(w), model->eta_plus(w)) << "window=" << w;
      }
      for (Count q = 1; q <= 40; ++q) {
        const Time d = model->delta_minus(q);
        for (const Time w : {d - 1, d, d + 1}) {
          EXPECT_EQ(table.eta_plus(w), model->eta_plus(w))
              << "q=" << q << " window=" << w;
        }
      }

      // Infinite / huge windows go through the overflow fallbacks.
      EXPECT_EQ(table.eta_plus(kTimeInfinity), model->eta_plus(kTimeInfinity));
      EXPECT_EQ(table.eta_plus(kTimeInfinity - 1), model->eta_plus(kTimeInfinity - 1));
      EXPECT_EQ(table.delta_minus(kCountInfinity - 1), model->delta_minus(kCountInfinity - 1));
    }
  }
}

/// Field-by-field equality against the preserved pre-flattening
/// implementation (wharf::reference) on randomized systems.
TEST(ArrivalTable, FlatLatencyAnalysisMatchesReference) {
  std::mt19937_64 rng(7);
  gen::RandomSystemSpec spec;
  spec.min_chains = 3;
  spec.max_chains = 6;
  spec.utilization = 0.85;
  spec.async_fraction = 0.3;
  for (int round = 0; round < 25; ++round) {
    const System sys = gen::random_system(spec, rng, "prop" + std::to_string(round));
    AnalysisOptions options;
    options.max_busy_windows = 10'000;
    for (int target : sys.regular_indices()) {
      for (const std::vector<int>& exclude :
           {std::vector<int>{}, sys.overload_indices()}) {
        const LatencyResult flat = latency_analysis(sys, target, options, exclude);
        const LatencyResult ref = reference::latency_analysis(sys, target, options, exclude);
        SCOPED_TRACE("round " + std::to_string(round) + " target " + std::to_string(target));
        EXPECT_EQ(flat.bounded, ref.bounded);
        EXPECT_EQ(flat.reason, ref.reason);
        EXPECT_EQ(flat.K, ref.K);
        EXPECT_EQ(flat.busy_times, ref.busy_times);
        EXPECT_EQ(flat.wcl, ref.wcl);
        EXPECT_EQ(flat.worst_q, ref.worst_q);
        EXPECT_EQ(flat.misses_per_window, ref.misses_per_window);
        EXPECT_EQ(flat.schedulable, ref.schedulable);
      }
    }
  }
}

/// Serializes only the query results (diagnostics stripped), as
/// engine_test does, so reports compare on *answers*.
std::string results_json(const AnalysisReport& report) {
  AnalysisReport stripped = report;
  stripped.diagnostics = ReportDiagnostics{};
  return to_json(stripped);
}

TEST(ArrivalTable, ReportsBitIdenticalAcrossJobsAndTinyCache) {
  std::mt19937_64 rng(99);
  gen::RandomSystemSpec spec;
  spec.min_chains = 4;
  spec.max_chains = 4;
  spec.utilization = 0.8;
  std::vector<AnalysisRequest> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(
        AnalysisRequest::standard(gen::random_system(spec, rng, "rep" + std::to_string(i))));
  }

  // A cache this small evicts aggressively, so artifacts are recomputed
  // rather than reused — the answers must not care.
  std::vector<std::string> baseline;
  for (const int jobs : {1, 4, 16}) {
    Engine engine{EngineOptions{jobs, /*cache_bytes=*/4'096, /*store_dir=*/""}};
    // Up to `jobs` requests run concurrently, each fanning its queries
    // out over the same `jobs`.
    std::vector<AnalysisReport> reports(requests.size());
    util::parallel_for_index(requests.size(), jobs,
                             [&](std::size_t i) { reports[i] = engine.run(requests[i]); });
    ASSERT_EQ(reports.size(), requests.size());
    if (baseline.empty()) {
      for (const AnalysisReport& r : reports) baseline.push_back(results_json(r));
      continue;
    }
    for (std::size_t i = 0; i < reports.size(); ++i) {
      EXPECT_EQ(results_json(reports[i]), baseline[i])
          << "jobs=" << jobs << " request " << i;
    }
  }
}

}  // namespace
}  // namespace wharf
