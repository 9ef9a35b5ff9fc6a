// Paths over chains (paper footnote 1): a two-stage processing pipeline
// where stage1's completions activate stage2.  Shows the derived output
// arrival model, end-to-end latency composition, per-chain deadline
// budgeting for the path DMM, and validation by linked simulation.
//
//   $ ./pipeline_paths

#include <iostream>

#include "engine/engine.hpp"
#include "io/tables.hpp"
#include "sim/arrival_sequence.hpp"
#include "sim/simulator.hpp"
#include "util/strings.hpp"

namespace {

wharf::System build_pipeline() {
  using namespace wharf;
  Chain::Spec acquire;
  acquire.name = "acquire";
  acquire.arrival = periodic(300);
  acquire.deadline = 300;
  acquire.tasks = {Task{"capture", 6, 20}, Task{"filter", 2, 25}};

  Chain::Spec process;  // activation replaced by the derived model below
  process.name = "process";
  process.arrival = periodic(300);
  process.deadline = 300;
  process.tasks = {Task{"transform", 5, 15}, Task{"publish", 1, 30}};

  Chain::Spec recovery;
  recovery.name = "recovery";
  recovery.arrival = sporadic(10'000);
  recovery.overload = true;
  recovery.tasks = {Task{"restore", 7, 35}};

  System draft("pipeline", {Chain(std::move(acquire)), Chain(std::move(process)),
                            Chain(std::move(recovery))});

  // Replace stage 2's declared activation by the sound model of stage 1's
  // completions (the CPA contract for linked chains).
  const LatencyResult lat1 = latency_analysis(draft, 0);
  const ArrivalModelPtr derived = derived_output_model(draft.chain(0), lat1);
  std::vector<Chain> chains;
  for (int c = 0; c < draft.size(); ++c) {
    Chain::Spec spec = draft.chain(c).spec();
    if (c == 1) spec.arrival = derived;
    chains.emplace_back(std::move(spec));
  }
  return wharf::System("pipeline", std::move(chains));
}

}  // namespace

int main() {
  using namespace wharf;

  const System sys = build_pipeline();
  std::cout << "Derived activation model of 'process' (completions of 'acquire'):\n  "
            << sys.chain(1).arrival().describe() << "\n\n";

  // Both path queries go to one Engine, so the path DMM reuses the
  // per-chain artifacts the latency query resolved.
  const std::vector<std::string> path = {"acquire", "process"};
  const Time deadline = 200;
  PathDmmQuery dmm_query;
  dmm_query.chains = path;
  dmm_query.deadline = deadline;
  dmm_query.ks = {3, 5, 10, 50};
  Engine engine;
  const AnalysisReport report =
      engine.run(AnalysisRequest{sys, {}, {PathLatencyQuery{path}, dmm_query}});
  if (!report.ok()) {
    std::cerr << report.worst_status().to_string() << '\n';
    return 1;
  }

  const PathLatencyResult& lat = std::get<PathLatencyAnswer>(report.results[0].answer).result;
  std::cout << "Path latency bound: " << lat.wcl << "  (per chain: ";
  for (std::size_t i = 0; i < lat.per_chain_wcl.size(); ++i) {
    std::cout << (i ? " + " : "") << lat.per_chain_wcl[i];
  }
  std::cout << ")\n\n";

  io::TextTable table({"k", "dmm_path(k)", "budgets", "per-chain dmm"});
  for (const PathDmmResult& r : std::get<PathDmmAnswer>(report.results[1].answer).curve) {
    std::string budgets;
    std::string per_chain;
    for (std::size_t i = 0; i < r.budgets.size(); ++i) {
      budgets += (i ? "+" : "") + util::cat(r.budgets[i]);
      per_chain += (i ? "+" : "") + util::cat(r.per_chain[i]);
    }
    table.add_row({util::cat(r.k), util::cat(r.dmm), budgets, per_chain});
  }
  std::cout << "Path DMM with end-to-end deadline " << deadline << " (< " << lat.wcl << "):\n"
            << table.render() << '\n';

  // Validate by linked simulation.
  sim::SimOptions options;
  options.links = {sim::ChainLink{0, 1}};
  std::vector<std::vector<Time>> arrivals(3);
  arrivals[0] = sim::periodic_arrivals(300, 0, 120'000);
  arrivals[2] = sim::greedy_arrivals(sys.chain(2).arrival(), 0, 120'000);
  const sim::SimResult run = sim::simulate(sys, arrivals, options);

  Time max_latency = 0;
  Count misses = 0;
  for (Time l : sim::path_latencies(run, {0, 1})) {
    max_latency = std::max(max_latency, l);
    if (l > deadline) ++misses;
  }
  std::cout << "Linked simulation over 120000 ticks: " << run.chains[0].completed
            << " path instances, max end-to-end latency " << max_latency << " (bound " << lat.wcl
            << "), " << misses << " deadline misses (path dmm bounds hold).\n";
  return 0;
}
