/// \file saturated_system.hpp
/// The near-saturation fixture shared by the busy-window tests and the
/// core-solver bench (perfbench's `sweep_saturated` workload builds the
/// same system): three periodic two-task chains at utilization ~0.9991
/// plus a rare overload chain.  With a task of chain `a` (flat task
/// index 0 or 1) at the lowest priority, a's with-overload busy window
/// charges a long-run load of 6877/6875 > 1 and never closes; its
/// overload-free window closes.  Header-only.

#ifndef WHARF_TESTS_SUPPORT_SATURATED_SYSTEM_HPP
#define WHARF_TESTS_SUPPORT_SATURATED_SYSTEM_HPP

#include <string>
#include <utility>
#include <vector>

#include "core/arrival.hpp"
#include "core/system.hpp"

namespace wharf::testsupport {

/// The fixture under its nominal priorities (task a1 lowest).
inline System saturated_system() {
  std::vector<Chain> chains;
  const Time periods[3] = {100'000, 110'000, 120'000};
  const Time wcets[3] = {16'650, 18'320, 19'980};
  const char* names[3] = {"a", "b", "c"};
  for (int i = 0; i < 3; ++i) {
    Chain::Spec spec;
    spec.name = names[i];
    spec.arrival = periodic(periods[i]);
    spec.deadline = periods[i];
    spec.tasks = {Task{std::string(names[i]) + "1", Priority(1 + 2 * i), wcets[i]},
                  Task{std::string(names[i]) + "2", Priority(2 + 2 * i), wcets[i]}};
    chains.emplace_back(std::move(spec));
  }
  Chain::Spec overload;
  overload.name = "ov";
  overload.arrival = sporadic(2'500'000);
  overload.overload = true;
  overload.tasks = {Task{"o1", Priority(7), 3'000}};
  chains.emplace_back(std::move(overload));
  return System("saturated", std::move(chains));
}

}  // namespace wharf::testsupport

#endif  // WHARF_TESTS_SUPPORT_SATURATED_SYSTEM_HPP
