/// \file serve.hpp
/// `wharf serve`: the long-lived NDJSON request/response server over the
/// session API (io/wire.hpp speaks the protocol, net/service.hpp does
/// the request handling, engine/session.hpp does the work).  The full
/// protocol specification lives in docs/serve-protocol.md.
///
/// Transport modes (the only two; each has one serving loop):
///  * stdio (default) — one conversation on stdin/stdout until EOF or a
///    shutdown request (serve_stream).  A reader that goes away fails
///    the write with EPIPE (cmd_serve ignores SIGPIPE), so the store
///    still spills and the process exits 4;
///  * TCP (`--listen PORT`) — 127.0.0.1 socket served by the async core
///    (net/server.hpp, serve_listener): one epoll reactor thread plus a
///    fixed worker pool, serving **any number of concurrent
///    connections** with `--max-connections` as the global in-flight
///    *request* budget.
///    Each connection owns its sessions; all connections share one
///    Engine/ArtifactStore, so identical lookups from different clients
///    coalesce through the store's single-flight table and repeat
///    clients start warm.
///
/// Exit-code contract (the serve-mode consistency rule): a *per-request*
/// error — malformed JSON line, oversized line, unknown session, failing
/// delta, bad query, expired deadline — is answered with a JSON error
/// response on the stream and the server keeps going; the process exits
/// non-zero only for usage errors (1) and transport failures (4: cannot
/// bind/listen/accept, or the stdio output stream broke).  One client's
/// transport failure — a disconnect mid-request, an unwritable socket —
/// terminates only that connection, never the server.  Clean EOF and
/// client-requested shutdown (which stops accepting and drains the live
/// connections) exit 0.

#ifndef WHARF_CLI_SERVE_HPP
#define WHARF_CLI_SERVE_HPP

#include <cstddef>
#include <iosfwd>
#include <string>

#include "engine/engine.hpp"
#include "net/service.hpp"
#include "util/status.hpp"

namespace wharf::cli {

/// Exit code for transport failures in serve mode (bind/listen/accept
/// errors, unwritable stdio output stream).
inline constexpr int kTransportError = 4;

/// Runs one NDJSON conversation on `in`/`out` (sessions live for the
/// conversation; `engine` provides the shared store and jobs; `server`,
/// when given, is reported in diagnostics responses and collects the
/// request counters).  Each response is written as one flushed line,
/// and a failed write ends the conversation — transport errors stay
/// confined to this stream.  Streaming queries
/// work here too (frames are written back-to-back); request deadlines
/// never expire in this mode because execution starts the moment a
/// request is read.  Returns true when the client requested shutdown,
/// false on EOF or transport failure.  Thread-safe with respect to
/// sibling conversations: concurrent serve_stream calls may share one
/// `engine`.
bool serve_stream(Engine& engine, std::istream& in, std::ostream& out,
                  net::ServeTelemetry* server = nullptr);

/// Binds a listening TCP socket on 127.0.0.1:`port` (0 picks an
/// ephemeral port, reported via `bound_port`).  Returns the listener fd.
Expected<int> bind_serve_socket(int port, int& bound_port);

/// Serves the listener with the async core (net::AsyncServer): a single
/// reactor thread (the calling one) plus a `max_connections`-sized
/// worker pool, with `max_connections` doubling as the global in-flight
/// request budget (<= 0 means hardware_concurrency).  Connections
/// beyond the budget are accepted and held; their requests queue behind
/// the budget.  A client-requested shutdown stops the accept loop and
/// drains: live connections keep being served until their clients
/// disconnect, then the listener closes and 0 is returned.  Returns
/// kTransportError only when accept() itself fails fatally.
int serve_listener(Engine& engine, int listener_fd, int max_connections, std::ostream& err);

/// Default periodic-persist interval of a serve worker with a
/// --store-dir (milliseconds): frequent enough that a SIGKILL'ed sweep
/// worker loses at most a beat of artifacts, coarse enough that the
/// atomic snapshot writes stay off the serving hot path.
inline constexpr long long kDefaultServePersistIntervalMs = 200;

/// The `wharf serve` subcommand: `listen_port` < 0 means stdio mode;
/// `max_connections` <= 0 means hardware_concurrency (TCP mode only).
/// A non-empty `store_dir` loads the persistent artifact snapshot at
/// startup and spills it back on graceful exit (EOF, shutdown request,
/// drained listener) — see engine/store_persist.hpp.  Between those
/// endpoints the engine re-spills periodically (`persist_interval_ms`;
/// < 0 picks kDefaultServePersistIntervalMs when store_dir is set, 0
/// disables) so even an abrupt kill leaves a warm snapshot.
int cmd_serve(int jobs, std::size_t cache_bytes, const std::string& store_dir,
              long long persist_interval_ms, int listen_port, int max_connections,
              std::istream& in, std::ostream& out, std::ostream& err);

}  // namespace wharf::cli

#endif  // WHARF_CLI_SERVE_HPP
