/// \file service.hpp
/// Transport-independent request handling of the serve protocol: the
/// per-connection Conversation (named sessions over the shared engine),
/// the request dispatchers, streaming query execution, and the
/// cross-connection telemetry surfaced by `diagnostics` responses.
///
/// Both transports speak through this layer: the blocking stdio loop
/// (cli::serve_stream) and the async serve core (net::AsyncServer) call
/// the same handle_request()/run_query_stream(), so protocol semantics
/// cannot drift between them.  Responses are produced as complete
/// NDJSON lines (no trailing newline) handed to an Emit callback — the
/// transport decides whether that means a blocking, flushed write to a
/// stream or an append to a reactor-drained write queue.
///
/// Wire formats, frame layouts, and field tables are normative in
/// docs/serve-protocol.md.

#ifndef WHARF_NET_SERVICE_HPP
#define WHARF_NET_SERVICE_HPP

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/session.hpp"
#include "io/wire.hpp"

namespace wharf::net {

/// Cross-connection counters of one serve process, surfaced in every
/// `diagnostics` response ("server" object, same field order).
/// Thread-safe (plain atomics); shared by every connection of one
/// server — and by the reactor, workers, and timers of the async core.
struct ServeTelemetry {
  std::atomic<long long> connections_served{0};  ///< conversations started
  std::atomic<int> connections_active{0};        ///< currently live
  /// Requests parsed but not yet answered (queued + executing), across
  /// all connections — the quantity the global budget bounds.
  std::atomic<int> requests_inflight{0};
  std::atomic<long long> requests_served{0};     ///< requests answered
  /// Requests answered with deadline-exceeded instead of being run.
  std::atomic<long long> deadline_expired{0};
  /// Times a connection's reads were paused (write queue over its bound
  /// or the global in-flight budget exhausted).
  std::atomic<long long> backpressure_stalls{0};
  /// Request lines rejected for exceeding the protocol line bound.
  std::atomic<long long> oversized_lines{0};
  /// Times the accept loop backed off on EMFILE/ENFILE.
  std::atomic<long long> accept_pauses{0};
  /// Streaming result frames emitted (terminal summaries excluded).
  std::atomic<long long> stream_frames{0};
};

/// The per-conversation state: named sessions over the engine's shared
/// store.  One conversation belongs to one connection; at any moment at
/// most one thread touches it (the stdio loop, or the single worker the
/// async core grants a connection at a time) — sessions are never
/// shared across connections, the ArtifactStore underneath is.
struct Conversation {
  Engine* engine = nullptr;
  ServeTelemetry* server = nullptr;  ///< optional; counters, not ownership
  std::map<std::string, Session> sessions;
};

/// Delivers one complete response line to the transport.  Returns false
/// once the peer is unreachable — the producer stops emitting (streams
/// abort between frames; nothing blocks).
using Emit = std::function<bool(const std::string&)>;

/// Dispatches one parsed non-streaming request and returns its single
/// response line; sets `shutdown` for the shutdown kind.  Streaming
/// queries (request.stream) go through run_query_stream() instead.
[[nodiscard]] std::string handle_request(Conversation& conversation,
                                         const io::WireRequest& request, bool& shutdown);

/// Resumable progress of one streaming query request: which results
/// exist and which query runs next.  Owned by the transport so a parked
/// stream (async backpressure) can continue exactly where it stopped.
struct StreamProgress {
  std::vector<QueryResult> results;
  std::size_t next = 0;       ///< first query not yet executed
  bool preflighted = false;   ///< session lookup already done
};

/// Executes a streaming query request incrementally: one query at a
/// time, emitting a "result" frame per query and a terminal "summary"
/// frame (docs/serve-protocol.md, "Streaming responses").  Between
/// queries `should_park()` is consulted; true suspends execution with
/// the position saved in `progress` — call again later to resume.
/// Returns true when the request is finished (summary emitted, session
/// missing, or the transport failed), false when parked.
bool run_query_stream(Conversation& conversation, const io::WireRequest& request,
                      StreamProgress& progress, const Emit& emit,
                      const std::function<bool()>& should_park);

/// The deadline-exceeded error envelope for a request whose deadline
/// elapsed while it was still queued (shared wording between transports
/// and tests).
[[nodiscard]] std::string deadline_exceeded_response(const io::WireRequest& request);

}  // namespace wharf::net

#endif  // WHARF_NET_SERVICE_HPP
