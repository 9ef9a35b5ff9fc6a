// Sensitivity of the deadline miss model to the overload arrival curve —
// the quantitative backing for the reproduction's Table II calibration
// (EXPERIMENTS.md): the paper's dmm_c(76)=4 and dmm_c(250)=5 pin the
// unpublished industrial delta_minus curve into 200-tick intervals, and
// no pure sporadic model can reproduce the table.
//
//   $ ./bench_sensitivity

#include <benchmark/benchmark.h>

#include <iostream>

#include "core/case_studies.hpp"
#include "core/twca.hpp"
#include "io/tables.hpp"
#include "util/strings.hpp"

namespace {

using namespace wharf;
using namespace wharf::case_studies;

/// Case study with a parameterizable overload curve (shared by both
/// overload chains, keeping their distinct delta_minus(2)).
System case_study_with_curve(Time d3, Time d4, Time tail) {
  const System base = date17_case_study();
  std::vector<Chain> chains;
  for (int i = 0; i < base.size(); ++i) {
    const Chain& c = base.chain(i);
    Chain::Spec s = c.spec();
    if (c.is_overload()) {
      const Time d2 = c.arrival().delta_minus(2);
      s.arrival = delta_curve({d2, d3, d4}, tail);
    }
    chains.emplace_back(std::move(s));
  }
  return System("sweep", std::move(chains));
}

void print_tables() {
  std::cout << "=== dmm_c around k=76 as a function of the overload delta_minus(3) ===\n"
            << "(value dmm_c(76)=4 with the jump exactly at k=76 holds for\n"
            << " d3 in [15131, 15331); the paper's oddly specific k=76 is most\n"
            << " plausibly the first k where dmm increments)\n\n";
  io::TextTable d3_table({"delta_minus(3)", "dmm_c(75)", "dmm_c(76)", "jump at 76"});
  for (Time d3 : {14900, 15100, 15130, 15131, 15200, 15330, 15331, 15500}) {
    const System sys = case_study_with_curve(d3, 50'000, 35'000);
    TwcaAnalyzer analyzer{sys};
    const Count v75 = analyzer.dmm(kSigmaC, 75).dmm;
    const Count v76 = analyzer.dmm(kSigmaC, 76).dmm;
    d3_table.add_row({util::cat(d3), util::cat(v75), util::cat(v76),
                      (v75 == 3 && v76 == 4) ? "yes" : "no"});
  }
  std::cout << d3_table.render() << '\n';

  std::cout << "=== dmm_c around k=250 as a function of the overload delta_minus(4) ===\n"
            << "(value dmm_c(250)=5 with the jump exactly at k=250 holds for\n"
            << " d4 in [49931, 50131))\n\n";
  io::TextTable d4_table({"delta_minus(4)", "dmm_c(249)", "dmm_c(250)", "jump at 250"});
  for (Time d4 : {49700, 49930, 49931, 50000, 50130, 50131, 50400}) {
    const System sys = case_study_with_curve(15'200, d4, 35'000);
    TwcaAnalyzer analyzer{sys};
    const Count v249 = analyzer.dmm(kSigmaC, 249).dmm;
    const Count v250 = analyzer.dmm(kSigmaC, 250).dmm;
    d4_table.add_row({util::cat(d4), util::cat(v249), util::cat(v250),
                      (v249 == 4 && v250 == 5) ? "yes" : "no"});
  }
  std::cout << d4_table.render() << '\n';

  std::cout << "=== No pure sporadic curve can reproduce Table II ===\n"
            << "dmm_c under sporadic overload with min inter-arrival g (both chains):\n\n";
  io::TextTable sporadic_table({"g", "dmm_c(3)", "dmm_c(76)", "dmm_c(250)"});
  for (Time g : {300, 600, 700, 2000, 5110, 5200, 7600}) {
    const System base = date17_case_study();
    std::vector<Chain> chains;
    for (int i = 0; i < base.size(); ++i) {
      Chain::Spec s = base.chain(i).spec();
      if (s.overload) s.arrival = sporadic(g);
      chains.emplace_back(std::move(s));
    }
    const System sys("sporadic_sweep", std::move(chains));
    TwcaAnalyzer analyzer{sys};
    sporadic_table.add_row({util::cat(g), util::cat(analyzer.dmm(kSigmaC, 3).dmm),
                            util::cat(analyzer.dmm(kSigmaC, 76).dmm),
                            util::cat(analyzer.dmm(kSigmaC, 250).dmm)});
  }
  std::cout << sporadic_table.render();
  std::cout << "Matching dmm_c(3)=3 forces g < 731, but then eta over the k=76 window\n"
               "(15331 ticks) is >= 21 — far above the paper's 4.  Matching dmm_c(76)=4\n"
               "forces g > 5110, which breaks dmm_c(3)=3 (and even dmm_c(1)).  Hence the\n"
               "calibrated rare-overload curve in case_studies.hpp.\n\n";
}

void BM_SweepPoint(benchmark::State& state) {
  for (auto _ : state) {
    const System sys = case_study_with_curve(15'200, 50'000, 35'000);
    TwcaAnalyzer analyzer{sys};
    benchmark::DoNotOptimize(analyzer.dmm(kSigmaC, 250));
  }
}
BENCHMARK(BM_SweepPoint);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
