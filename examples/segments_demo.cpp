// Walkthrough of the paper's segment machinery (Definitions 2-8) on the
// Figure 1 system, reproducing every in-text example of Sections IV-V.
//
//   $ ./segments_demo

#include <iostream>

#include "core/case_studies.hpp"
#include "core/combinations.hpp"
#include "core/segments.hpp"
#include "util/strings.hpp"

namespace {

void print_chain(const wharf::Chain& chain) {
  std::cout << "  " << chain.name() << " = (";
  for (int i = 0; i < chain.size(); ++i) {
    if (i) std::cout << ", ";
    std::cout << chain.task(i).name << "/" << chain.task(i).priority;
  }
  std::cout << ")\n";
}

}  // namespace

int main() {
  using namespace wharf;
  using namespace wharf::case_studies;

  const System system = figure1_system();
  const Chain& a = system.chain(kFig1SigmaA);
  const Chain& b = system.chain(kFig1SigmaB);

  std::cout << "=== Figure 1 system (task/priority) ===\n";
  print_chain(a);
  print_chain(b);

  std::cout << "\nDef. 2 — interference classification:\n";
  std::cout << "  sigma_a deferred by sigma_b? " << (is_deferred(a, b) ? "yes" : "no")
            << "  (tau4_a and tau6_a are below sigma_b's min priority "
            << b.min_priority() << ")\n";
  std::cout << "  sigma_b deferred by sigma_a? " << (is_deferred(b, a) ? "yes" : "no")
            << "  (sigma_a's min priority is " << a.min_priority()
            << "; sigma_b arbitrarily interferes)\n";

  std::cout << "\nDef. 3 — segments of sigma_a w.r.t. sigma_b:\n";
  for (const Segment& s : segments_wrt(a, b)) {
    std::cout << "  " << format_task_list(a, s.tasks) << (s.wraps ? "  [wraps]" : "") << '\n';
  }
  std::cout << "  (paper: (tau1,tau2,tau3) and (tau5))\n";

  std::cout << "\nDef. 4 — critical segment: ";
  std::cout << format_task_list(a, critical_segment(a, b)->tasks) << '\n';

  std::cout << "\nDef. 5 — header subchains:\n";
  std::cout << "  s_header of sigma_a (before its own lowest-priority task): "
            << format_task_list(a, header_subchain(a)) << '\n';
  std::cout << "  s_header of sigma_a w.r.t. sigma_b: "
            << format_task_list(a, header_segment_wrt(a, b)) << '\n';

  std::cout << "\nDef. 8 — active segments of sigma_a w.r.t. sigma_b:\n";
  for (const ActiveSegment& s : active_segments_wrt(a, b)) {
    std::cout << "  " << format_task_list(a, s.tasks) << "  (segment " << s.segment_index
              << ")\n";
  }
  std::cout << "  (paper: (tau1,tau2), (tau3), (tau5) — split at tau3 because its\n"
               "   priority 5 is below the priority 6 of sigma_b's tail task)\n";

  // Combinations (Def. 9): mark sigma_a as an overload chain.
  Chain::Spec a_over;
  a_over.name = a.name();
  a_over.kind = ChainKind::kSynchronous;
  a_over.arrival = sporadic(10'000);
  a_over.overload = true;
  a_over.tasks = a.tasks();
  const System overload_system("figure1_overload", {Chain(std::move(a_over)), b});

  const OverloadStructure structure = overload_structure(overload_system, 1);
  std::cout << "\nDef. 9 — valid combinations of sigma_a's active segments:\n";
  for (const Combination& c :
       enumerate_combinations(overload_system, structure, 1000)) {
    std::cout << "  " << format_combination(overload_system, structure, c) << '\n';
  }
  std::cout << "  (paper: exactly four; (tau5) never combines with the others because\n"
               "   it belongs to a different segment — Lemma 1)\n";
  return 0;
}
