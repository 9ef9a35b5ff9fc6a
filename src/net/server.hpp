/// \file server.hpp
/// The async serve core: one epoll reactor (net::Reactor) owning every
/// socket, a fixed worker pool (net::Executor) running the protocol
/// handlers (net::service), and per-connection state machines between
/// them.  Serving one slow client or a thousand costs the same fixed
/// thread count (reactor + pool), which is what the ROADMAP's
/// production-connection gate demands.
///
/// The moving parts, per connection:
///  * reads — the loop feeds an io::LineAssembler, parses complete
///    lines in place (parsing is cheap; analysis is not) and queues
///    requests FIFO; protocol errors (malformed JSON, oversized lines)
///    are queued as pre-rendered responses so answers never reorder;
///  * execution — at most one worker at a time owns a connection's
///    Conversation (session contract), draining its request queue;
///    responses are appended to a bounded write queue and the loop is
///    woken to drain it on EPOLLOUT — compute never blocks the loop,
///    slow clients never block a worker (streams park, see below);
///  * deadlines — a request carrying "deadline_ms" arms a reactor
///    timer; firing while the request is still queued marks it
///    cancelled and releases its budget slot, and the worker answers it
///    with the deadline-exceeded envelope at dequeue (in order), never
///    running the work;
///  * backpressure — reads pause (EPOLLIN dropped) while the global
///    in-flight budget is exhausted or the connection's write queue is
///    over its byte bound; a parked streaming query resumes when the
///    queue drains.  Nothing buffers without a bound.
///
/// Shutdown latches the moment a shutdown request *parses* (even if
/// the acknowledgment turns out unwritable): accepting stops and the
/// server exits once every live connection drains.  The requesting connection's own
/// conversation is over: it closes as soon as its ack drains, so a
/// closer that holds its socket open while waiting for server exit
/// cannot deadlock the drain.

#ifndef WHARF_NET_SERVER_HPP
#define WHARF_NET_SERVER_HPP

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>

#include "engine/engine.hpp"
#include "io/wire.hpp"
#include "net/executor.hpp"
#include "net/reactor.hpp"
#include "net/service.hpp"

namespace wharf::net {

/// Tuning knobs of one AsyncServer (all have serviceable defaults).
struct AsyncServeOptions {
  /// Global bound on requests parsed-but-unanswered across every
  /// connection (the `--max-connections` budget); <= 0 means the
  /// hardware thread count.  Overshoot is bounded by one read chunk:
  /// lines already buffered when the budget fills still queue.
  int max_inflight = 0;
  /// Worker pool size; <= 0 means the resolved max_inflight (a larger
  /// pool than the admission budget could never be fully busy).
  int pool_threads = 0;
  /// Per-line protocol bound forwarded to io::LineAssembler.
  std::size_t max_line_bytes = io::kMaxWireLineBytes;
  /// Per-connection outgoing byte bound: reads pause above it, and a
  /// streaming query parks instead of producing its next frame; both
  /// resume once the queue drains below half the bound.
  std::size_t write_buffer_limit = std::size_t{1} << 20;
  /// Back-off before retrying accept() after EMFILE/ENFILE.
  std::chrono::milliseconds accept_retry{100};
};

/// True when `errno_value` is fd exhaustion (EMFILE/ENFILE) — the
/// accept errors that mean "pause briefly", not "give up".
[[nodiscard]] bool is_fd_exhaustion(int errno_value);

/// The log line emitted when accept() hits fd exhaustion (contains
/// util::errno_message(errno_value); tests assert on it).
[[nodiscard]] std::string accept_pause_message(int errno_value);

/// The event-driven NDJSON server over one listening socket.  Construct
/// it, then call serve() on the thread that should become the reactor
/// loop.  Takes ownership of `listener_fd`.
class AsyncServer {
 public:
  /// `err` receives human-readable accept diagnostics (loop thread
  /// only); it must outlive serve().
  AsyncServer(Engine& engine, int listener_fd, AsyncServeOptions options, std::ostream& err);
  ~AsyncServer();

  AsyncServer(const AsyncServer&) = delete;
  AsyncServer& operator=(const AsyncServer&) = delete;

  /// Runs the reactor on the calling thread until a client-requested
  /// shutdown (or a fatal accept error) and every live connection has
  /// drained.  Returns true on the graceful endings, false when the
  /// listener itself failed (the caller maps that to its transport
  /// exit code).
  bool serve();

  /// The cross-connection counters (diagnostics responses report them;
  /// thread-safe to read at any time).
  [[nodiscard]] ServeTelemetry& telemetry() { return telemetry_; }

 private:
  struct Conn;
  struct ParkedStream;
  struct PendingItem;

  // Loop-thread entry points.
  void on_accept(std::uint32_t events);
  void on_conn_event(const std::shared_ptr<Conn>& conn, std::uint32_t events);
  void on_readable(const std::shared_ptr<Conn>& conn);
  void on_writable(const std::shared_ptr<Conn>& conn);
  void on_conn_wake(const std::shared_ptr<Conn>& conn);
  void on_deadline(const std::weak_ptr<Conn>& weak, std::uint64_t seq);
  void enqueue_line(const std::shared_ptr<Conn>& conn, const std::string& line);
  void ensure_worker(const std::shared_ptr<Conn>& conn);
  void update_interest(const std::shared_ptr<Conn>& conn);
  void maybe_finish(const std::shared_ptr<Conn>& conn);
  void close_conn(const std::shared_ptr<Conn>& conn);
  void resume_budget_paused();
  void stop_accepting();
  void check_exit();

  // Worker-side (any executor thread).
  void worker_run(const std::shared_ptr<Conn>& conn);
  bool emit_line(const std::shared_ptr<Conn>& conn, const std::string& line);
  void notify(const std::shared_ptr<Conn>& conn);

  [[nodiscard]] bool budget_full() const;

  Engine& engine_;
  std::ostream& err_;
  AsyncServeOptions options_;
  int listener_fd_ = -1;
  ServeTelemetry telemetry_;

  Reactor reactor_;

  // Loop-thread-only state.
  std::map<int, std::shared_ptr<Conn>> conns_;
  std::map<int, std::shared_ptr<Conn>> budget_paused_;  ///< reads off: budget
  bool accepting_ = true;
  bool shutdown_latched_ = false;
  bool accept_failed_ = false;
  std::uint64_t next_seq_ = 1;

  // Declared last: its destructor joins the workers while the reactor
  // and connection map above are still alive for their final posts.
  Executor executor_;
};

}  // namespace wharf::net

#endif  // WHARF_NET_SERVER_HPP
