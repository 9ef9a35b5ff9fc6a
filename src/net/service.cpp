#include "net/service.hpp"

#include <utility>

#include "io/json.hpp"
#include "io/system_format.hpp"
#include "util/strings.hpp"

namespace wharf::net {

namespace {

/// Resolves the session a request addresses, or nullptr (the caller
/// answers not-found).
Session* find_session(Conversation& conversation, const std::string& name) {
  const auto it = conversation.sessions.find(name);
  return it == conversation.sessions.end() ? nullptr : &it->second;
}

std::string unknown_session(const io::WireRequest& request) {
  return io::wire_response(
      request, Status::not_found(util::cat("unknown session '", request.session, "'")));
}

void write_session_stats(io::JsonWriter& w, const SessionStats& stats) {
  w.key("revision");
  w.value(static_cast<long long>(stats.revision));
  w.key("deltas_applied");
  w.value(stats.deltas_applied);
  w.key("queries_served");
  w.value(stats.queries_served);
  const StageDiagnostics store = total(stats.stages);
  w.key("store");
  w.begin_object();
  w.key("hits");
  w.value(static_cast<long long>(store.hits));
  w.key("misses");
  w.value(static_cast<long long>(store.misses));
  w.key("shared");
  w.value(static_cast<long long>(store.shared));
  w.key("stages");
  w.begin_object();
  for (std::size_t s = 0; s < kArtifactStageCount; ++s) {
    w.key(to_string(static_cast<ArtifactStage>(static_cast<int>(s))));
    w.begin_object();
    w.key("lookups");
    w.value(static_cast<long long>(stats.stages[s].lookups));
    w.key("hits");
    w.value(static_cast<long long>(stats.stages[s].hits));
    w.key("misses");
    w.value(static_cast<long long>(stats.stages[s].misses));
    w.key("shared");
    w.value(static_cast<long long>(stats.stages[s].shared));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  w.key("slices");
  w.begin_object();
  w.key("hits");
  w.value(static_cast<long long>(stats.slices.hits));
  w.key("misses");
  w.value(static_cast<long long>(stats.slices.misses));
  w.end_object();
}

std::string handle_open(Conversation& conversation, const io::WireRequest& request) {
  if (find_session(conversation, request.session) != nullptr) {
    return io::wire_response(
        request,
        Status::invalid_argument(util::cat("session '", request.session, "' is already open")));
  }
  const Expected<System> system = capture([&] { return io::parse_system(request.system_text); });
  if (!system) return io::wire_response(request, system.status());

  Session session = conversation.engine->open_session(system.value(), request.options);
  const int chains = session.system().size();
  const int tasks = session.system().task_count();
  conversation.sessions.emplace(request.session, std::move(session));
  return io::wire_response(request, Status::ok(), [&](io::JsonWriter& w) {
    w.key("system");
    w.value(system.value().name());
    w.key("chains");
    w.value(chains);
    w.key("tasks");
    w.value(tasks);
    w.key("revision");
    w.value(0);
  });
}

std::string handle_apply(Conversation& conversation, const io::WireRequest& request) {
  Session* session = find_session(conversation, request.session);
  if (session == nullptr) return unknown_session(request);
  const Status applied = session->apply(request.deltas);
  if (!applied.is_ok()) return io::wire_response(request, applied);
  return io::wire_response(request, Status::ok(), [&](io::JsonWriter& w) {
    w.key("revision");
    w.value(static_cast<long long>(session->revision()));
    w.key("deltas_applied");
    w.value(static_cast<long long>(request.deltas.size()));
  });
}

std::string handle_query(Conversation& conversation, const io::WireRequest& request) {
  Session* session = find_session(conversation, request.session);
  if (session == nullptr) return unknown_session(request);
  const AnalysisReport report = session->serve(request.queries);
  return io::wire_response(request, Status::ok(), [&](io::JsonWriter& w) {
    w.key("revision");
    w.value(static_cast<long long>(session->revision()));
    // The exact report schema of `wharf analyze --json` (per-query
    // status entries included — a failing query is a structured result,
    // not a stream error).
    w.key("report");
    w.raw(to_json(report));
  });
}

std::string handle_evaluate(Conversation& conversation, const io::WireRequest& request) {
  Session* session = find_session(conversation, request.session);
  if (session == nullptr) return unknown_session(request);
  // A malformed shard unit (wrong-arity candidate, duplicate priorities)
  // throws inside the evaluator; capture() turns it into the error
  // envelope — the coordinator treats that as a faulty worker response
  // and re-issues the unit elsewhere.
  const auto objectives =
      capture([&] { return session->evaluate_candidates(request.candidates, request.eval_k); });
  if (!objectives) return io::wire_response(request, objectives.status());
  return io::wire_response(request, Status::ok(), [&](io::JsonWriter& w) {
    // The echoed unit id is the coordinator's first-result-wins dedup
    // key (duplicate responses for a unit are discarded by id).
    w.key("unit");
    w.value(static_cast<long long>(request.unit));
    w.key("objectives");
    w.begin_array();
    for (const search::Objective& o : objectives.value()) io::write_objective(w, o);
    w.end_array();
  });
}

std::string handle_diagnostics(Conversation& conversation, const io::WireRequest& request) {
  Session* session = find_session(conversation, request.session);
  if (session == nullptr) return unknown_session(request);
  const SessionStats stats = session->stats();
  const ArtifactStore::Stats store = conversation.engine->store_stats();
  std::size_t shared_flights = 0;
  for (const ArtifactStore::StageStats& stage : store.stage) {
    shared_flights += stage.flights_shared;
  }
  return io::wire_response(request, Status::ok(), [&](io::JsonWriter& w) {
    write_session_stats(w, stats);
    w.key("engine_store");
    w.begin_object();
    w.key("resident_entries");
    w.value(static_cast<long long>(store.resident_entries));
    w.key("resident_bytes");
    w.value(static_cast<long long>(store.resident_bytes));
    w.key("evictions");
    w.value(static_cast<long long>(store.evictions));
    // Engine-lifetime single-flight joins from any source — batch
    // workers, sibling sessions, other connections (each session's own
    // share is the "shared" counter of its stats above).
    w.key("shared_flights");
    w.value(static_cast<long long>(shared_flights));
    // Startup snapshot-load outcome (both zero without --store-dir or
    // on a genuinely cold start; load_skipped_corrupt > 0 means the
    // snapshot was rejected and the store started cold).
    const Engine::PersistenceStats& persistence = conversation.engine->persistence_stats();
    w.key("persisted_artifacts");
    w.value(static_cast<long long>(persistence.persisted_artifacts));
    w.key("load_skipped_corrupt");
    w.value(static_cast<long long>(persistence.load_skipped_corrupt));
    w.end_object();
    w.key("sessions_open");
    w.value(static_cast<long long>(conversation.sessions.size()));
    if (conversation.server != nullptr) {
      const ServeTelemetry& server = *conversation.server;
      w.key("server");
      w.begin_object();
      w.key("connections_active");
      w.value(server.connections_active.load(std::memory_order_relaxed));
      w.key("connections_served");
      w.value(server.connections_served.load(std::memory_order_relaxed));
      w.key("requests_inflight");
      w.value(server.requests_inflight.load(std::memory_order_relaxed));
      w.key("requests_served");
      w.value(server.requests_served.load(std::memory_order_relaxed));
      w.key("deadline_expired");
      w.value(server.deadline_expired.load(std::memory_order_relaxed));
      w.key("backpressure_stalls");
      w.value(server.backpressure_stalls.load(std::memory_order_relaxed));
      w.key("oversized_lines");
      w.value(server.oversized_lines.load(std::memory_order_relaxed));
      w.key("accept_pauses");
      w.value(server.accept_pauses.load(std::memory_order_relaxed));
      w.key("stream_frames");
      w.value(server.stream_frames.load(std::memory_order_relaxed));
      w.end_object();
    }
  });
}

std::string handle_close(Conversation& conversation, const io::WireRequest& request) {
  const auto it = conversation.sessions.find(request.session);
  if (it == conversation.sessions.end()) return unknown_session(request);
  const SessionStats stats = it->second.stats();
  conversation.sessions.erase(it);
  return io::wire_response(request, Status::ok(), [&](io::JsonWriter& w) {
    w.key("revision");
    w.value(static_cast<long long>(stats.revision));
    w.key("queries_served");
    w.value(stats.queries_served);
  });
}

}  // namespace

std::string handle_request(Conversation& conversation, const io::WireRequest& request,
                           bool& shutdown) {
  switch (request.kind) {
    case io::WireKind::kOpenSession: return handle_open(conversation, request);
    case io::WireKind::kApplyDelta: return handle_apply(conversation, request);
    case io::WireKind::kQuery: return handle_query(conversation, request);
    case io::WireKind::kEvaluate: return handle_evaluate(conversation, request);
    case io::WireKind::kDiagnostics: return handle_diagnostics(conversation, request);
    case io::WireKind::kClose: return handle_close(conversation, request);
    case io::WireKind::kShutdown:
      shutdown = true;
      return io::wire_response(request, Status::ok());
  }
  return io::wire_protocol_error(Status::internal("unhandled request kind"));
}

bool run_query_stream(Conversation& conversation, const io::WireRequest& request,
                      StreamProgress& progress, const Emit& emit,
                      const std::function<bool()>& should_park) {
  // Re-resolved on every resume — cheap, and the pointer stays valid
  // across parks anyway (requests of one connection run strictly FIFO,
  // so nothing closes the session mid-stream).
  Session* session = find_session(conversation, request.session);
  if (session == nullptr) {
    (void)emit(unknown_session(request));
    return true;
  }
  if (!progress.preflighted) {
    progress.preflighted = true;
    progress.results.reserve(request.queries.size());
  }
  while (progress.next < request.queries.size()) {
    if (should_park && should_park()) return false;
    QueryResult result = session->execute(request.queries[progress.next],
                                          request.queries.size());
    const std::string frame =
        io::wire_response(request, Status::ok(), [&](io::JsonWriter& w) {
          w.key("frame");
          w.value("result");
          w.key("index");
          w.value(static_cast<long long>(progress.next));
          // Bit-identical to the corresponding "results" array entry of
          // the monolithic report response (the bench gates on this).
          w.key("result");
          w.raw(to_json(result));
        });
    progress.results.push_back(std::move(result));
    ++progress.next;
    if (conversation.server != nullptr) {
      conversation.server->stream_frames.fetch_add(1, std::memory_order_relaxed);
    }
    if (!emit(frame)) return true;  // transport gone: abort the stream
  }
  const AnalysisReport report = session->collect(std::move(progress.results));
  const std::size_t count = report.results.size();
  // The summary's envelope status is the report's worst status — the
  // monolithic response buries it inside "report", a streaming client
  // reads it straight off the terminal frame.
  (void)emit(io::wire_response(request, report.worst_status(), [&](io::JsonWriter& w) {
    w.key("frame");
    w.value("summary");
    w.key("revision");
    w.value(static_cast<long long>(session->revision()));
    w.key("results");
    w.value(static_cast<long long>(count));
    w.key("diagnostics");
    w.raw(to_json(report.diagnostics));
  }));
  return true;
}

std::string deadline_exceeded_response(const io::WireRequest& request) {
  return io::wire_response(
      request, Status::deadline_exceeded(util::cat("deadline of ", request.deadline_ms,
                                                   "ms elapsed before execution started")));
}

}  // namespace wharf::net
