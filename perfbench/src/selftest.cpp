// Self-tests of the benchmark (perfbench --self-test): the inputs are a
// pure function of the seed, and the two workload properties the
// benchmark's design rests on hold.  Both properties are facts about the
// analysis, so they survive any correct optimisation of wharf.

#include <iostream>
#include <string>

#include "common.hpp"
#include "core/twca.hpp"
#include "inputs.hpp"

namespace perfbench {

using namespace wharf;

namespace {

int failures = 0;

void expect(bool ok, const std::string& name) {
  std::cout << (ok ? "PASS " : "FAIL ") << name << "\n";
  if (!ok) ++failures;
}

}  // namespace

int run_self_tests() {
  for (const char* workload : {"analyze_cold", "search_warm", "sweep_saturated"}) {
    const std::uint64_t first = input_digest(workload, 1);
    expect(first == input_digest(workload, 1),
           std::string(workload) + ": the same seed gives the same input digest");
    expect(first != input_digest(workload, 2),
           std::string(workload) + ": another seed gives another input digest");
  }

  // analyze_cold must stay out of the K_b-cap regime: no latency result
  // of any generated system is unbounded.
  for (const std::uint64_t seed : {1, 2, 3}) {
    long long unbounded = 0;
    for (const System& system : analyze_cold_inputs(seed)) {
      const TwcaAnalyzer analyzer(system);
      for (const int c : system.regular_indices()) {
        unbounded += !analyzer.latency(c).bounded;
        unbounded += !analyzer.latency_without_overload(c).bounded;
      }
    }
    expect(unbounded == 0, "analyze_cold seed " + std::to_string(seed) +
                               ": no unbounded latency (" + std::to_string(unbounded) + ")");
  }

  // sweep_saturated must stay in it: the capped chain is unbounded for
  // every candidate and for the nominal assignment.
  for (const std::uint64_t seed : {1, 2}) {
    const SweepInputs inputs = sweep_saturated_inputs(seed);
    std::vector<std::vector<Priority>> assignments = inputs.candidates;
    assignments.push_back(inputs.base.flat_priorities());
    int bounded = 0;
    for (const std::vector<Priority>& priorities : assignments) {
      const TwcaAnalyzer analyzer(inputs.base.with_priorities(priorities));
      bounded += analyzer.latency(kSweepCappedChain).bounded;
    }
    expect(bounded == 0, "sweep_saturated seed " + std::to_string(seed) +
                             ": the capped chain is unbounded for every candidate");
  }

  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
