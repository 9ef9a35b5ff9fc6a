// Design-space exploration in the spirit of the paper's Experiment 2:
// sample random priority assignments of the case study, compute dmm(10)
// for sigma_c and sigma_d, and additionally *search* for the assignment
// with the best weakly-hard guarantee (an extension the paper motivates:
// "the impact of priority assignments on ... deadline miss models").
//
// The whole exploration runs through wharf::Engine::run: one request per
// sampled assignment plus one PrioritySearchQuery, whose candidates are
// scored on the worker pool.
//
//   $ ./random_design_space [samples] [seed]

#include <cstdlib>
#include <iostream>
#include <map>

#include "core/case_studies.hpp"
#include "engine/engine.hpp"
#include "gen/random_systems.hpp"
#include "io/tables.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace wharf;
  using namespace wharf::case_studies;

  const int samples = argc > 1 ? std::atoi(argv[1]) : 200;
  const std::uint64_t seed = argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 1;

  const System base = date17_case_study(OverloadModel::kRareOverload);
  std::mt19937_64 rng(seed);

  // One request per sampled assignment; the nominal system rides along
  // as the last two requests (its dmm values and the hill-climb search).
  std::vector<AnalysisRequest> requests;
  requests.reserve(static_cast<std::size_t>(samples) + 2);
  for (int i = 0; i < samples; ++i) {
    requests.push_back(AnalysisRequest{gen::with_random_priorities(base, rng),
                                       {},
                                       {DmmQuery{"sigma_c", {10}}, DmmQuery{"sigma_d", {10}}}});
  }
  requests.push_back(
      AnalysisRequest{base, {}, {DmmQuery{"sigma_c", {10}}, DmmQuery{"sigma_d", {10}}}});
  PrioritySearchQuery climb;
  climb.restarts = 2;
  climb.budget = 40;
  climb.seed = seed;
  requests.push_back(AnalysisRequest{base, {}, {climb}});

  Engine engine{EngineOptions{0, EngineOptions{}.cache_bytes}};  // 0 = all hardware threads
  std::vector<AnalysisReport> reports;
  reports.reserve(requests.size());
  for (const AnalysisRequest& request : requests) reports.push_back(engine.run(request));

  const auto dmm_of = [](const AnalysisReport& report, std::size_t query) {
    return std::get<DmmAnswer>(report.results[query].answer).curve.front().dmm;
  };

  std::map<Count, Count> histogram_c;
  std::map<Count, Count> histogram_d;
  Count best_total = -1;
  std::size_t best_index = 0;
  for (int i = 0; i < samples; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const Count dmm_c = dmm_of(reports[idx], 0);
    const Count dmm_d = dmm_of(reports[idx], 1);
    ++histogram_c[dmm_c];
    ++histogram_d[dmm_d];
    const Count total = dmm_c + dmm_d;
    if (best_total < 0 || total < best_total) {
      best_total = total;
      best_index = idx;
    }
  }

  const auto print_histogram = [](const char* name, const std::map<Count, Count>& h) {
    std::vector<std::string> labels;
    std::vector<Count> counts;
    for (const auto& [dmm, count] : h) {
      labels.push_back(util::cat("dmm=", dmm));
      counts.push_back(count);
    }
    std::cout << name << ":\n" << io::render_histogram(labels, counts, 40) << '\n';
  };

  std::cout << "=== " << samples << " random priority assignments (seed " << seed << ") ===\n\n";
  print_histogram("dmm_c(10)", histogram_c);
  print_histogram("dmm_d(10)", histogram_d);

  std::cout << "Best assignment found (minimizing dmm_c(10) + dmm_d(10) = " << best_total
            << "):\n  priorities (flat task order): ";
  const std::vector<Priority> best_assignment =
      requests[best_index].system.flat_priorities();
  for (std::size_t i = 0; i < best_assignment.size(); ++i) {
    if (i) std::cout << ',';
    std::cout << best_assignment[i];
  }
  const AnalysisReport& nominal = reports[static_cast<std::size_t>(samples)];
  std::cout << "\n\nThe nominal Figure 4 assignment gives dmm_c(10)=" << dmm_of(nominal, 0)
            << ", dmm_d(10)=" << dmm_of(nominal, 1)
            << " — random exploration regularly finds strictly better weakly-hard designs.\n";

  // Go beyond sampling: synthesize an assignment with local search.
  const auto& synthesized =
      std::get<SearchAnswer>(reports[static_cast<std::size_t>(samples) + 1].results[0].answer);
  std::cout << "\nHill-climb synthesis (" << synthesized.result.evaluations
            << " evaluations): chains missing = "
            << synthesized.result.best_objective.chains_missing
            << ", total dmm(10) = " << synthesized.result.best_objective.total_dmm
            << ", total WCL = " << synthesized.result.best_objective.total_wcl << '\n';
  const StageDiagnostics store = total(synthesized.stats.stages);
  std::cout << "Candidates scored through the engine's artifact store: " << store.hits
            << " stage artifacts reused, " << store.misses << " computed.\n";
  return 0;
}
