// sweep_saturated: `wharf sweep` on a near-saturated system.  Each op is
// one dist::run_sweep of the same seeded 8 random candidates over 2
// freshly spawned `wharf serve` workers (jobs=1, unit_size=1).  Every
// candidate runs the busy-window search to the K_b cap, the work no
// other workload does, and the sweep is the only path through the dist
// coordinator.  Closed loop, one coordinator thread.

#include <unistd.h>

#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "dist/client.hpp"
#include "dist/coordinator.hpp"
#include "engine/artifact_store.hpp"
#include "engine/session.hpp"
#include "inputs.hpp"
#include "io/json.hpp"
#include "io/system_format.hpp"
#include "search/priority_search.hpp"

namespace perfbench {

using namespace wharf;

namespace {

constexpr const char* kOp = "dist.sweep";
constexpr int kWorkers = 2;
constexpr Count kK = 10;

std::vector<dist::WorkerSpec> worker_specs() {
  std::vector<dist::WorkerSpec> specs(kWorkers);
  for (dist::WorkerSpec& spec : specs) {
    spec.binary = WHARF_BINARY_PATH;
    spec.jobs = 1;
  }
  return specs;
}

/// Spawns one worker and opens a session on `base` through it: the
/// set-up proof that the worker binary runs.  Any failure ends the run.
void probe_worker(const System& base) {
  if (::access(WHARF_BINARY_PATH, X_OK) != 0) {
    setup_failure(std::string("worker binary missing: ") + WHARF_BINARY_PATH);
  }
  Expected<dist::WorkerLink> link = dist::WorkerLink::open(worker_specs().front());
  if (!link) setup_failure("cannot spawn a worker: " + link.status().to_string());
  const std::string open = "{\"id\":1,\"type\":\"open_session\",\"session\":\"probe\",\"system\":\"" +
                           io::json_escape(io::serialize_system(base)) + "\"}";
  if (!link.value().send_line(open)) setup_failure("worker closed its input");
  const Expected<std::string> reply = link.value().read_line(30'000);
  if (!reply || reply.value().find("\"status\":\"ok\"") == std::string::npos) {
    setup_failure("worker did not open a session");
  }
  link.value().close_fd();
  link.value().reap(5'000);
}

bool same_outcome(const dist::SweepOutcome& a, const search::Objective& nominal,
                  const search::SearchResult& want) {
  return a.nominal == nominal && a.result.best_priorities == want.best_priorities &&
         a.result.best_objective == want.best_objective &&
         a.result.evaluations == want.evaluations;
}

}  // namespace

Result run_sweep_saturated(const Args& args) {
  std::optional<SweepInputs> loaded;
  const double setup_s = timed_setup([&] {
    loaded.emplace(sweep_saturated_inputs(args.seed));
    probe_worker(loaded->base);
  });
  const SweepInputs& inputs = *loaded;
  const std::vector<dist::WorkerSpec> specs = worker_specs();
  dist::SweepOptions options;
  options.k = kK;
  options.unit_size = 1;

  Result result;
  std::vector<Op> ops;
  std::vector<dist::SweepOutcome> outcomes;
  Tracer tracer;
  const std::int64_t start = now_ns();
  const std::int64_t stop = start + static_cast<std::int64_t>(args.seconds * 1e9);
  std::int64_t end = start;
  while (end < stop) {
    // A sweep outlasts a trace block, so a traced run alternates ops.
    const bool traced = args.trace && ops.size() % 2 == 1;
    const std::int64_t t0 = now_ns();
    Expected<dist::SweepOutcome> outcome =
        dist::run_sweep(inputs.base, TwcaOptions{}, inputs.candidates, specs, options);
    end = now_ns();
    if (traced) tracer.record(kOp, static_cast<long long>(ops.size()), t0, end);
    ops.push_back(Op{static_cast<double>(end - t0) / 1e6, outcome.has_value(), traced});
    if (outcome) {
      outcomes.push_back(std::move(outcome.value()));
    } else {
      std::cerr << "perfbench: sweep failed: " << outcome.status().to_string() << "\n";
      outcomes.emplace_back();
    }
  }
  const double busy_s = static_cast<double>(end - start) / 1e9;
  const double rss = peak_rss_mb();

  // The oracle, outside the timed window: the same candidates scored in
  // process (cold, one thread) and folded like the sequential search.
  ArtifactStore store;
  search::PipelineEvaluator evaluator(inputs.base, search::EvaluationSpec{kK, {}}, TwcaOptions{},
                                      store, 1);
  const std::int64_t e0 = now_ns();
  const search::Objective nominal = evaluator.evaluate(inputs.base.flat_priorities());
  const std::int64_t e1 = now_ns();
  const std::vector<search::Objective> scores = evaluator.evaluate_many(inputs.candidates);
  const std::int64_t e2 = now_ns();
  search::SearchResult want;
  bool have_best = false;
  search::fold_scores(inputs.candidates, scores, want, have_best);
  want.evaluations = static_cast<long long>(inputs.candidates.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].ok && !same_outcome(outcomes[i], nominal, want)) {
      result.mismatch("sweep " + std::to_string(i) + " differs from the in-process fold");
      ops[i].ok = false;
    }
  }

  account_ops(result, ops);
  if (!args.trace) {
    add_end_to_end(result, ops, busy_s,
                   static_cast<long long>(ops.size() * inputs.candidates.size()), setup_s, rss);
    return result;
  }
  std::map<std::string, double> layer;
  double traced_ops = 0;
  double units = 0;
  double stolen = 0;
  double reissued = 0;
  double duplicates = 0;
  double deaths = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const dist::SweepTelemetry& t = outcomes[i].telemetry;
    deaths += static_cast<double>(t.worker_deaths);
    if (!ops[i].traced) continue;
    traced_ops += 1;
    units += static_cast<double>(t.units);
    stolen += static_cast<double>(t.stolen_units);
    reissued += static_cast<double>(t.reissued_units);
    duplicates += static_cast<double>(t.duplicate_results);
  }
  // Per candidate, the cold latency analysis of every regular chain (the
  // capped busy-window search); the capped chain must come out unbounded.
  for (std::size_t c = 0; c < inputs.candidates.size(); ++c) {
    ArtifactStore cold;
    Session session(inputs.base.with_priorities(inputs.candidates[c]), TwcaOptions{}, cold, 1);
    const ScopedSpan span(tracer, "core.latency", static_cast<long long>(c));
    for (const int chain : inputs.base.regular_indices()) {
      if (chain == kSweepCappedChain && session.latency(chain).bounded) {
        result.mismatch("capped chain bounded for candidate " + std::to_string(c));
      }
      if (chain != kSweepCappedChain) (void)session.latency(chain);
    }
  }
  const double in_process_ms = static_cast<double>(e2 - e0) / 1e6;
  const double sweep_ms = median(tracer.each_us(kOp)) / 1e3;
  layer["dist.units"] = units / traced_ops;
  layer["dist.stolen_units"] = stolen / traced_ops;
  layer["dist.reissued_units"] = reissued / traced_ops;
  layer["dist.duplicate_results"] = duplicates / traced_ops;
  layer["dist.worker_deaths"] = deaths;
  layer["dist.useful_ratio"] = units + duplicates > 0 ? units / (units + duplicates) : 0;
  layer["search.evaluate_many_ms"] = static_cast<double>(e2 - e1) / 1e6;
  layer["dist.overhead_ms"] = sweep_ms - in_process_ms / kWorkers;
  layer["core.latency_us"] = median(tracer.each_us("core.latency"));
  double seconds[2] = {0, 0};  // untraced, traced
  for (const Op& op : ops) seconds[op.traced] += op.ms / 1e3;
  add_trace_summary(result, ops, seconds[0], seconds[1], tracer, kOp);
  add_per_layer(result, layer);
  tracer.write_chrome_trace(trace_path(args));
  return result;
}

}  // namespace perfbench
