// analyze_cold: `wharf analyze --json` as users run it.  Each op builds a
// fresh Engine (jobs=1), answers AnalysisRequest::standard(system,
// {3,10,50}) and serializes the report, so every store lookup misses and
// stage compute does the work.  Closed loop, one thread.

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/twca.hpp"
#include "engine/engine.hpp"
#include "engine/session.hpp"
#include "inputs.hpp"

namespace perfbench {

using namespace wharf;

namespace {

constexpr const char* kOp = "op.analyze";
constexpr const char* kReplay = "replay.analyze";

/// Unbounded latency results of a report: analyze_cold's inputs are
/// generated to have none, so each one fails its op.
long long unbounded_latencies(const AnalysisReport& report) {
  long long unbounded = 0;
  for (const QueryResult& r : report.results) {
    if (const auto* a = std::get_if<LatencyAnswer>(&r.answer)) unbounded += !a->result.bounded;
  }
  return unbounded;
}

/// The untraced op: exactly the public one-shot path.
std::string analyze(const AnalysisRequest& request, bool& ok) {
  Engine engine(EngineOptions{});
  const AnalysisReport report = engine.run(request);
  ok = report.ok() && unbounded_latencies(report) == 0;
  return to_json(report);
}

/// The traced op: the same calls as analyze(), with a span around each.
std::string analyze_traced(const AnalysisRequest& request, Tracer& tracer, long long op,
                           bool& ok, AnalysisReport& report) {
  const ScopedSpan whole(tracer, kOp, op);
  std::optional<Engine> engine;
  {
    const ScopedSpan span(tracer, "engine.create", op, whole.index());
    engine.emplace(EngineOptions{});
  }
  {
    const ScopedSpan span(tracer, "engine.run", op, whole.index());
    report = engine->run(request);
  }
  std::string json;
  {
    const ScopedSpan span(tracer, "io.serialize", op, whole.index());
    json = to_json(report);
  }
  {
    const ScopedSpan span(tracer, "engine.teardown", op, whole.index());
    engine.reset();
  }
  ok = report.ok() && unbounded_latencies(report) == 0;
  return json;
}

/// A labelled sub-measurement of a traced op, run after it: the same
/// request answered query by query on the public calls of one cold
/// Session, so engine.run's time splits into session opening, latency
/// and dmm.  Unlike Engine::run it primes no batched busy-window
/// artifact and runs each query alone.  Returns the report's answers.
AnalysisReport decompose(const AnalysisRequest& request, Tracer& tracer, long long op) {
  const ScopedSpan whole(tracer, kReplay, op);
  std::optional<Engine> engine;
  std::optional<Session> session;
  {
    const ScopedSpan span(tracer, "engine.open_session", op, whole.index());
    engine.emplace(EngineOptions{});
    session.emplace(engine->open_session(request.system, request.options));
  }
  std::vector<QueryResult> results;
  for (const Query& query : request.queries) {
    const bool latency = std::holds_alternative<LatencyQuery>(query);
    const ScopedSpan span(tracer, latency ? "core.latency" : "core.dmm", op, whole.index());
    results.push_back(session->execute(query, 1));
  }
  return session->collect(std::move(results));
}

/// Compares one report with an independent TwcaAnalyzer on the same
/// system: bounded flag and WCL of both latency variants and dmm(k) of
/// every chain with a deadline.  Returns "" when they agree.
std::string check_against_analyzer(const AnalysisRequest& request, const AnalysisReport& report) {
  const TwcaAnalyzer analyzer(request.system, request.options);
  for (std::size_t i = 0; i < request.queries.size(); ++i) {
    const QueryResult& r = report.results[i];
    if (!r.ok()) return "query failed: " + r.status.to_string();
    if (const auto* q = std::get_if<LatencyQuery>(&request.queries[i])) {
      const int c = *request.system.chain_index(q->chain);
      const LatencyResult& want =
          q->without_overload ? analyzer.latency_without_overload(c) : analyzer.latency(c);
      const LatencyResult& got = std::get<LatencyAnswer>(r.answer).result;
      if (got.bounded != want.bounded || (want.bounded && got.wcl != want.wcl)) {
        return "latency of " + q->chain + " differs";
      }
    } else if (const auto* q = std::get_if<DmmQuery>(&request.queries[i])) {
      const int c = *request.system.chain_index(q->chain);
      const auto& curve = std::get<DmmAnswer>(r.answer).curve;
      for (std::size_t k = 0; k < q->ks.size(); ++k) {
        const DmmResult want = analyzer.dmm(c, q->ks[k]);
        if (curve[k].dmm != want.dmm || curve[k].status != want.status) {
          return "dmm(" + std::to_string(q->ks[k]) + ") of " + q->chain + " differs";
        }
      }
    }
  }
  return "";
}

/// The answers of a report, serialized (the diagnostics differ between
/// the batched serve() and per-query execute() by design).
std::string answers_json(const AnalysisReport& report) {
  std::string out;
  for (const QueryResult& r : report.results) out += to_json(r);
  return out;
}

/// The set-up: a request per system of the pool.
std::vector<AnalysisRequest> requests_of(std::uint64_t seed) {
  std::vector<AnalysisRequest> requests;
  for (System& system : analyze_cold_inputs(seed)) {
    requests.push_back(AnalysisRequest::standard(std::move(system), analyze_ks()));
  }
  return requests;
}

}  // namespace

double time_analyze_cold_setup(const Args& args) {
  const std::int64_t start = now_ns();
  const std::vector<AnalysisRequest> requests = requests_of(args.seed);
  return static_cast<double>(now_ns() - start) / 1e9;
}

Result run_analyze_cold(const Args& args) {
  // setup_s comes from set-ups in child processes, one now and one a
  // second in the loop (see kResetupNs).
  std::vector<double> setup_times{timed_setup_in_child(args)};
  const std::vector<AnalysisRequest> requests = requests_of(args.seed);

  Result result;
  std::vector<Op> ops;
  Tracer tracer;
  std::size_t json_bytes = 0;
  long long unbounded = 0;
  // Loop time that belongs to no op: the decompositions of a traced run
  // and the set-ups of an untraced one.
  double untimed_s = 0;
  std::array<double, kArtifactStageCount> lookups{};
  std::array<double, kArtifactStageCount> misses{};

  const TraceSchedule schedule(args.trace);
  const std::int64_t start = now_ns();
  const std::int64_t stop = start + static_cast<std::int64_t>(args.seconds * 1e9);
  std::int64_t end = start;
  std::int64_t next_setup = start + kResetupNs;
  for (long long op = 0; end < stop; ++op) {
    const AnalysisRequest& request = requests[static_cast<std::size_t>(op) % requests.size()];
    const bool traced = schedule.traced_now();
    bool ok = false;
    AnalysisReport report;  // filled by a traced op only
    const std::int64_t t0 = now_ns();
    json_bytes += traced ? analyze_traced(request, tracer, op, ok, report).size()
                         : analyze(request, ok).size();
    end = now_ns();
    ops.push_back(Op{static_cast<double>(end - t0) / 1e6, ok, traced});
    if (traced) {
      for (std::size_t s = 0; s < kArtifactStageCount; ++s) {
        lookups[s] += static_cast<double>(report.diagnostics.stages[s].lookups);
        misses[s] += static_cast<double>(report.diagnostics.stages[s].misses);
      }
      unbounded += unbounded_latencies(report);
      (void)decompose(request, tracer, op);
      const std::int64_t replayed = now_ns();
      untimed_s += static_cast<double>(replayed - end) / 1e9;
      end = replayed;
    } else if (!args.trace && end >= next_setup && end < stop) {
      setup_times.push_back(timed_setup_in_child(args));
      const std::int64_t set_up = now_ns();
      untimed_s += static_cast<double>(set_up - end) / 1e9;
      end = set_up;
      next_setup = end + kResetupNs;
    }
  }
  const double busy_s = static_cast<double>(end - start) / 1e9 - untimed_s;
  const double rss = peak_rss_mb();
  if (json_bytes == 0) result.mismatch("no report was serialized");

  // Correctness, outside the timed window: every 64th system of the pool
  // against TwcaAnalyzer, and the decomposition against the one-shot
  // path (byte-identical answers).  Every op already failed on an error
  // status or an unbounded latency.
  const std::size_t analysed = std::min(ops.size(), requests.size());
  for (std::size_t i = 0; i < analysed; i += 64) {
    Engine engine(EngineOptions{});
    const AnalysisReport report = engine.run(requests[i]);
    const std::string why = check_against_analyzer(requests[i], report);
    if (!why.empty()) {
      result.mismatch(requests[i].system.name() + ": " + why);
      ops[i].ok = false;
    }
    if (i % 512 == 0) {
      Tracer scratch;
      if (answers_json(decompose(requests[i], scratch, 0)) != answers_json(report)) {
        result.mismatch(requests[i].system.name() + ": decomposed answers differ");
        ops[i].ok = false;
      }
    }
  }

  account_ops(result, ops);
  if (!args.trace) {
    add_end_to_end(result, ops, busy_s, static_cast<long long>(ops.size()),
                   median(setup_times), rss);
    return result;
  }
  std::map<std::string, double> layer;
  const auto traced_ops = static_cast<double>(
      std::count_if(ops.begin(), ops.end(), [](const Op& op) { return op.traced; }));
  for (std::size_t s = 0; s < kArtifactStageCount; ++s) {
    layer[store_metric(s, "lookups")] = lookups[s] / traced_ops;
    layer[store_metric(s, "misses")] = misses[s] / traced_ops;
  }
  layer["engine.run_us"] = median(tracer.per_op_us(kOp, "engine.run"));
  layer["io.serialize_us"] = median(tracer.per_op_us(kOp, "io.serialize"));
  layer["engine.open_session_us"] = median(tracer.per_op_us(kReplay, "engine.open_session"));
  layer["core.latency_us"] = median(tracer.per_op_us(kReplay, "core.latency"));
  layer["core.dmm_us"] = median(tracer.per_op_us(kReplay, "core.dmm"));
  layer["core.unbounded_results"] = static_cast<double>(unbounded);
  add_trace_summary(result, ops, schedule.seconds_in(false, end),
                    schedule.seconds_in(true, end) - untimed_s, tracer, kOp);
  add_per_layer(result, layer);
  tracer.write_chrome_trace(trace_path(args));
  return result;
}

}  // namespace perfbench
