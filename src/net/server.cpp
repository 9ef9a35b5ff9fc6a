#include "net/server.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <deque>
#include <ostream>
#include <thread>
#include <utility>

#include "util/mutex.hpp"
#include "util/strings.hpp"
#include "util/thread_annotations.hpp"

namespace wharf::net {

namespace {

int default_parallelism() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(hw);
}

}  // namespace

bool is_fd_exhaustion(int errno_value) {
  return errno_value == EMFILE || errno_value == ENFILE;
}

std::string accept_pause_message(int errno_value) {
  return util::cat("serve: accept(): ", util::errno_message(errno_value),
                   "; pausing accepts until descriptors free up");
}

// ---------------------------------------------------------------------
// Per-connection state
// ---------------------------------------------------------------------

/// A streaming query suspended on backpressure: resumes exactly where
/// it stopped once the connection's write queue drains.
struct AsyncServer::ParkedStream {
  io::WireRequest request;
  StreamProgress progress;
};

/// One entry of a connection's FIFO request queue.  Protocol errors
/// ride the same queue as pre-rendered responses (seq == 0) so answers
/// keep request order.
struct AsyncServer::PendingItem {
  std::uint64_t seq = 0;     ///< nonzero: a parsed, budget-counted request
  bool cancelled = false;    ///< deadline fired while still queued
  bool ready = false;        ///< response is pre-rendered (protocol error)
  std::string response;      ///< when ready
  io::WireRequest request;   ///< when !ready
};

/// One live connection.  Plain members belong to the reactor loop
/// thread; everything crossing the loop/worker boundary sits under
/// `mutex` (the busy flag serializes workers, so `conversation` has a
/// single toucher at any moment even though ownership migrates).
struct AsyncServer::Conn {
  int fd = -1;
  io::LineAssembler assembler;  // loop thread only
  Conversation conversation;    // exclusive to the single active worker

  // Loop-thread-only read/interest state.
  bool read_eof = false;
  bool read_paused_budget = false;
  bool read_paused_write = false;
  /// A shutdown request parsed on this connection: its conversation is
  /// over — stop reading, and close once the ack drains (parity with
  /// the stdio loop, whose serve_stream returns after a shutdown; a
  /// closer that waits for server exit while holding its socket open
  /// must not deadlock the drain).
  bool conversation_over = false;

  util::Mutex mutex;
  std::deque<PendingItem> pending WHARF_GUARDED_BY(mutex);
  bool busy WHARF_GUARDED_BY(mutex) = false;  ///< a worker task owns the conn
  bool closed WHARF_GUARDED_BY(mutex) = false;
  std::unique_ptr<ParkedStream> parked WHARF_GUARDED_BY(mutex);
  bool resume_pending WHARF_GUARDED_BY(mutex) = false;
  std::deque<std::string> writes WHARF_GUARDED_BY(mutex);  ///< framed lines
  std::size_t write_offset WHARF_GUARDED_BY(mutex) = 0;    ///< into writes.front()
  std::size_t write_bytes WHARF_GUARDED_BY(mutex) = 0;
  bool wake_posted WHARF_GUARDED_BY(mutex) = false;  ///< a notify() is in flight

  explicit Conn(std::size_t max_line_bytes) : assembler(max_line_bytes) {}
};

// ---------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------

AsyncServer::AsyncServer(Engine& engine, int listener_fd, AsyncServeOptions options,
                         std::ostream& err)
    : engine_(engine),
      err_(err),
      options_(options),
      listener_fd_(listener_fd),
      executor_(static_cast<std::size_t>(
          options.pool_threads > 0
              ? options.pool_threads
              : (options.max_inflight > 0 ? options.max_inflight : default_parallelism()))) {
  if (options_.max_inflight <= 0) options_.max_inflight = default_parallelism();
  if (options_.write_buffer_limit == 0) options_.write_buffer_limit = 1;
  // The listener arrives blocking (bind_serve_socket serves both
  // transports); the reactor's accept-until-EAGAIN loop needs it not.
  const int flags = ::fcntl(listener_fd_, F_GETFL, 0);
  (void)::fcntl(listener_fd_, F_SETFL, flags | O_NONBLOCK);
}

AsyncServer::~AsyncServer() {
  executor_.stop();
  if (listener_fd_ >= 0) ::close(listener_fd_);
}

// ---------------------------------------------------------------------
// Serve loop
// ---------------------------------------------------------------------

bool AsyncServer::serve() {
  reactor_.add_fd(listener_fd_, EPOLLIN, [this](std::uint32_t events) { on_accept(events); });
  reactor_.run();
  // Everything drained (the exit condition): finish any worker still
  // unwinding, then release the listener.
  executor_.stop();
  ::close(listener_fd_);
  listener_fd_ = -1;
  return !accept_failed_;
}

void AsyncServer::on_accept(std::uint32_t /*events*/) {
  while (accepting_) {
    const int fd = ::accept4(listener_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (is_fd_exhaustion(errno)) {
        // Out of descriptors: log once, stop watching the listener, and
        // retry after a short back-off — never spin, never exit.  The
        // kernel keeps ready clients in the accept backlog meanwhile.
        err_ << accept_pause_message(errno) << "\n";
        telemetry_.accept_pauses.fetch_add(1, std::memory_order_relaxed);
        reactor_.set_interest(listener_fd_, 0);
        reactor_.add_timer(std::chrono::steady_clock::now() + options_.accept_retry, [this] {
          if (accepting_) reactor_.set_interest(listener_fd_, EPOLLIN);
        });
        return;
      }
      // Any other accept failure is fatal for the listener: stop
      // accepting, serve out the live connections, exit non-zero.
      err_ << "serve: accept(): " << util::errno_message(errno) << "\n";
      accept_failed_ = true;
      stop_accepting();
      check_exit();
      return;
    }

    auto conn = std::make_shared<Conn>(options_.max_line_bytes);
    conn->fd = fd;
    conn->conversation.engine = &engine_;
    conn->conversation.server = &telemetry_;
    conns_.emplace(fd, conn);
    telemetry_.connections_served.fetch_add(1, std::memory_order_relaxed);
    telemetry_.connections_active.fetch_add(1, std::memory_order_relaxed);
    reactor_.add_fd(fd, EPOLLIN,
                    [this, conn](std::uint32_t events) { on_conn_event(conn, events); });
    if (budget_full()) {
      // Admitted, but not read from yet: the budget governs requests,
      // and this newcomer starts paused like everyone else.
      conn->read_paused_budget = true;
      budget_paused_.emplace(fd, conn);
      telemetry_.backpressure_stalls.fetch_add(1, std::memory_order_relaxed);
      update_interest(conn);
    }
  }
}

void AsyncServer::on_conn_event(const std::shared_ptr<Conn>& conn, std::uint32_t events) {
  if ((events & EPOLLOUT) != 0) on_writable(conn);
  if (conns_.find(conn->fd) == conns_.end()) return;  // writable path closed it
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) on_readable(conn);
}

void AsyncServer::on_readable(const std::shared_ptr<Conn>& conn) {
  if (conn->read_paused_budget || conn->read_paused_write || conn->read_eof ||
      conn->conversation_over) {
    return;
  }
  if (budget_full()) {
    conn->read_paused_budget = true;
    budget_paused_.emplace(conn->fd, conn);
    telemetry_.backpressure_stalls.fetch_add(1, std::memory_order_relaxed);
    update_interest(conn);
    return;
  }

  // One chunk per readiness event: level-triggered epoll re-reports
  // leftovers, which keeps a firehose client from starving the rest.
  char buf[16384];
  const ssize_t n = ::read(conn->fd, buf, sizeof buf);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    close_conn(conn);  // ECONNRESET and friends: the peer is gone
    return;
  }
  if (n == 0) {
    // Clean half-close: no more requests, but everything already queued
    // still gets answered before the connection closes.
    conn->read_eof = true;
    update_interest(conn);
    maybe_finish(conn);
    return;
  }

  conn->assembler.feed(buf, static_cast<std::size_t>(n));
  std::string line;
  while (true) {
    const io::LineAssembler::Result result = conn->assembler.next(line);
    if (result == io::LineAssembler::Result::kNone) break;
    if (result == io::LineAssembler::Result::kOversized) {
      telemetry_.oversized_lines.fetch_add(1, std::memory_order_relaxed);
      PendingItem item;
      item.ready = true;
      item.response = io::oversized_line_error(options_.max_line_bytes);
      const util::MutexLock lock(conn->mutex);
      conn->pending.push_back(std::move(item));
      continue;
    }
    if (io::blank_line(line)) continue;
    enqueue_line(conn, line);
    // A shutdown line ends the conversation: anything buffered after it
    // is dropped, exactly as the stdio loop stops reading there.
    if (conn->conversation_over) break;
  }
  ensure_worker(conn);

  if (budget_full()) {
    conn->read_paused_budget = true;
    budget_paused_.emplace(conn->fd, conn);
    telemetry_.backpressure_stalls.fetch_add(1, std::memory_order_relaxed);
  }
  {
    const util::MutexLock lock(conn->mutex);
    conn->read_paused_write = conn->write_bytes > options_.write_buffer_limit;
  }
  update_interest(conn);
}

void AsyncServer::enqueue_line(const std::shared_ptr<Conn>& conn, const std::string& line) {
  const Expected<io::WireRequest> parsed = io::parse_request(line);
  PendingItem item;
  if (!parsed) {
    item.ready = true;
    item.response = io::wire_protocol_error(parsed.status());
  } else {
    item.request = parsed.value();
    item.seq = next_seq_++;
    telemetry_.requests_inflight.fetch_add(1, std::memory_order_relaxed);
    if (item.request.kind == io::WireKind::kShutdown) {
      conn->conversation_over = true;
      if (!shutdown_latched_) {
        // The latch happens at *parse* time: even if this client
        // vanishes before its acknowledgment is writable, the server
        // still stops.
        shutdown_latched_ = true;
        stop_accepting();
      }
    }
    if (item.request.deadline_ms > 0) {
      const std::weak_ptr<Conn> weak = conn;
      const std::uint64_t seq = item.seq;
      reactor_.add_timer(
          std::chrono::steady_clock::now() + std::chrono::milliseconds(item.request.deadline_ms),
          [this, weak, seq] { on_deadline(weak, seq); });
    }
  }
  const util::MutexLock lock(conn->mutex);
  conn->pending.push_back(std::move(item));
}

void AsyncServer::ensure_worker(const std::shared_ptr<Conn>& conn) {
  bool submit = false;
  {
    const util::MutexLock lock(conn->mutex);
    // A parked stream keeps `busy` held: new requests wait their turn.
    if (!conn->busy && !conn->pending.empty()) {
      conn->busy = true;
      submit = true;
    }
  }
  if (submit) {
    executor_.submit([this, conn] { worker_run(conn); });
  }
}

void AsyncServer::on_deadline(const std::weak_ptr<Conn>& weak, std::uint64_t seq) {
  const std::shared_ptr<Conn> conn = weak.lock();  // locking: weak_ptr::lock, not a mutex
  if (conn == nullptr) return;
  bool expired = false;
  {
    const util::MutexLock lock(conn->mutex);
    for (PendingItem& item : conn->pending) {
      if (item.seq == seq) {
        if (!item.cancelled) {
          item.cancelled = true;
          expired = true;
        }
        break;
      }
    }
  }
  if (!expired) return;  // already dequeued: started work always finishes
  telemetry_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
  telemetry_.requests_inflight.fetch_sub(1, std::memory_order_relaxed);
  resume_budget_paused();
}

void AsyncServer::on_writable(const std::shared_ptr<Conn>& conn) {
  bool broken = false;
  bool resume = false;
  {
    const util::MutexLock lock(conn->mutex);
    while (!conn->writes.empty()) {
      const std::string& front = conn->writes.front();
      const ssize_t n = ::send(conn->fd, front.data() + conn->write_offset,
                               front.size() - conn->write_offset, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        broken = true;
        break;
      }
      conn->write_offset += static_cast<std::size_t>(n);
      conn->write_bytes -= static_cast<std::size_t>(n);
      if (conn->write_offset == front.size()) {
        conn->writes.pop_front();
        conn->write_offset = 0;
      }
    }
    if (!broken && conn->write_bytes <= options_.write_buffer_limit / 2) {
      if (conn->parked != nullptr && !conn->resume_pending) {
        conn->resume_pending = true;
        resume = true;
      }
    }
  }
  if (broken) {
    close_conn(conn);
    return;
  }
  if (resume) {
    executor_.submit([this, conn] { worker_run(conn); });
  }
  bool below_limit = false;
  {
    const util::MutexLock lock(conn->mutex);
    below_limit = conn->write_bytes <= options_.write_buffer_limit / 2;
  }
  if (below_limit && conn->read_paused_write) {
    conn->read_paused_write = false;
  }
  update_interest(conn);
  maybe_finish(conn);
}

void AsyncServer::on_conn_wake(const std::shared_ptr<Conn>& conn) {
  // Budget slots released by this connection's worker must un-pause
  // siblings even when the connection itself is already closed.
  resume_budget_paused();
  if (conns_.find(conn->fd) == conns_.end()) return;  // already closed
  update_interest(conn);
  // Level-triggered EPOLLOUT will fire immediately for a writable
  // socket, but flushing now saves the extra loop pass (and covers the
  // case where the write queue is the only thing keeping us alive).
  on_writable(conn);
}

void AsyncServer::update_interest(const std::shared_ptr<Conn>& conn) {
  if (conns_.find(conn->fd) == conns_.end()) return;
  std::uint32_t events = 0;
  if (!conn->read_eof && !conn->read_paused_budget && !conn->read_paused_write &&
      !conn->conversation_over) {
    events |= EPOLLIN;
  }
  {
    const util::MutexLock lock(conn->mutex);
    if (!conn->writes.empty()) events |= EPOLLOUT;
  }
  reactor_.set_interest(conn->fd, events);
}

void AsyncServer::maybe_finish(const std::shared_ptr<Conn>& conn) {
  if (!conn->read_eof && !conn->conversation_over) return;
  if (conns_.find(conn->fd) == conns_.end()) return;
  {
    const util::MutexLock lock(conn->mutex);
    if (conn->busy || !conn->pending.empty() || !conn->writes.empty() ||
        conn->parked != nullptr) {
      return;
    }
  }
  close_conn(conn);
}

void AsyncServer::close_conn(const std::shared_ptr<Conn>& conn) {
  const auto it = conns_.find(conn->fd);
  if (it == conns_.end()) return;
  conns_.erase(it);
  budget_paused_.erase(conn->fd);
  reactor_.remove_fd(conn->fd);

  bool kick_parked = false;
  {
    const util::MutexLock lock(conn->mutex);
    conn->closed = true;
    // Queued-but-unanswered requests release their budget slots here;
    // cancelled ones already did at deadline fire.
    for (const PendingItem& item : conn->pending) {
      if (item.seq != 0 && !item.cancelled) {
        telemetry_.requests_inflight.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    conn->pending.clear();
    conn->writes.clear();
    conn->write_offset = 0;
    conn->write_bytes = 0;
    // A parked stream still holds a budget slot: let a worker resume
    // it against the now-closed connection — its first emit fails, the
    // stream aborts, and the normal completion path releases the slot.
    if (conn->parked != nullptr && !conn->resume_pending) {
      conn->resume_pending = true;
      kick_parked = true;
    }
  }
  ::close(conn->fd);
  telemetry_.connections_active.fetch_sub(1, std::memory_order_relaxed);
  if (kick_parked) {
    executor_.submit([this, conn] { worker_run(conn); });
  }
  resume_budget_paused();
  check_exit();
}

void AsyncServer::resume_budget_paused() {
  if (budget_full() || budget_paused_.empty()) return;
  // Budget freed: let every paused connection read again (admission is
  // re-checked per read, so an immediate refill just re-pauses them).
  std::map<int, std::shared_ptr<Conn>> paused;
  paused.swap(budget_paused_);
  for (const auto& [fd, conn] : paused) {
    if (conns_.find(fd) == conns_.end()) continue;
    conn->read_paused_budget = false;
    update_interest(conn);
  }
}

void AsyncServer::stop_accepting() {
  if (!accepting_) return;
  accepting_ = false;
  reactor_.remove_fd(listener_fd_);
}

void AsyncServer::check_exit() {
  if ((shutdown_latched_ || accept_failed_) && conns_.empty()) {
    reactor_.stop();
  }
}

bool AsyncServer::budget_full() const {
  return telemetry_.requests_inflight.load(std::memory_order_relaxed) >= options_.max_inflight;
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

bool AsyncServer::emit_line(const std::shared_ptr<Conn>& conn, const std::string& line) {
  {
    const util::MutexLock lock(conn->mutex);
    if (conn->closed) return false;
    conn->writes.push_back(line + "\n");
    conn->write_bytes += line.size() + 1;
  }
  notify(conn);
  return true;
}

void AsyncServer::notify(const std::shared_ptr<Conn>& conn) {
  {
    const util::MutexLock lock(conn->mutex);
    if (conn->wake_posted) return;  // one post covers any number of emits
    conn->wake_posted = true;
  }
  reactor_.post([this, conn] {
    {
      const util::MutexLock lock(conn->mutex);
      conn->wake_posted = false;
    }
    on_conn_wake(conn);
  });
}

void AsyncServer::worker_run(const std::shared_ptr<Conn>& conn) {
  const Emit emit = [this, &conn](const std::string& line) { return emit_line(conn, line); };
  const std::function<bool()> should_park = [this, &conn] {
    const util::MutexLock lock(conn->mutex);
    return !conn->closed && conn->write_bytes > options_.write_buffer_limit;
  };

  while (true) {
    // Resume a parked stream first: it predates everything queued.
    std::unique_ptr<ParkedStream> stream;
    PendingItem item;
    {
      const util::MutexLock lock(conn->mutex);
      if (conn->parked != nullptr) {
        stream = std::move(conn->parked);
        conn->resume_pending = false;
      } else if (conn->pending.empty()) {
        conn->busy = false;
        break;
      } else {
        item = std::move(conn->pending.front());
        conn->pending.pop_front();
      }
    }

    if (stream == nullptr && !item.ready && item.seq != 0 && !item.cancelled &&
        item.request.stream && item.request.kind == io::WireKind::kQuery) {
      stream = std::make_unique<ParkedStream>();
      stream->request = std::move(item.request);
    }

    if (stream != nullptr) {
      if (!run_query_stream(conn->conversation, stream->request, stream->progress, emit,
                            should_park)) {
        bool resubmit = false;
        {
          const util::MutexLock lock(conn->mutex);
          conn->parked = std::move(stream);
          // The event that would resume us — the drain below the low
          // watermark, or close_conn's kick — may have already happened
          // between the park decision and this re-check: resume
          // ourselves rather than waiting for a wakeup nobody owes us.
          // (A closed connection must resume too: the abort path is
          // what releases the stream's budget slot.)
          if (!conn->resume_pending &&
              (conn->closed || conn->write_bytes <= options_.write_buffer_limit / 2)) {
            conn->resume_pending = true;
            resubmit = true;
          }
        }
        if (resubmit) {
          executor_.submit([this, conn] { worker_run(conn); });
        }
        break;  // busy stays held by the parked stream
      }
      telemetry_.requests_inflight.fetch_sub(1, std::memory_order_relaxed);
      telemetry_.requests_served.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    if (item.ready) {
      (void)emit_line(conn, item.response);
      continue;
    }
    if (item.cancelled) {
      // The deadline fired while this sat in the queue: answer with the
      // envelope, skip the work (the budget slot was released at fire).
      (void)emit_line(conn, deadline_exceeded_response(item.request));
      telemetry_.requests_served.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    bool shutdown = false;  // already latched at parse time by the loop
    const std::string response = handle_request(conn->conversation, item.request, shutdown);
    (void)emit_line(conn, response);
    telemetry_.requests_inflight.fetch_sub(1, std::memory_order_relaxed);
    telemetry_.requests_served.fetch_add(1, std::memory_order_relaxed);
  }
  notify(conn);
}

}  // namespace wharf::net
