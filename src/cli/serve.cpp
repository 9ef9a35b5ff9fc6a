#include "cli/serve.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <istream>
#include <ostream>
#include <string>

#include "io/wire.hpp"
#include "net/server.hpp"
#include "net/service.hpp"
#include "util/strings.hpp"

namespace wharf::cli {

// ---------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------

bool serve_stream(Engine& engine, std::istream& in, std::ostream& out,
                  net::ServeTelemetry* server) {
  net::Conversation conversation;
  conversation.engine = &engine;
  conversation.server = server;
  // One framed line per response, flushed.  The stream's failbit is
  // sticky: after the first failed write every later one fails too.
  const auto write_line = [&out](const std::string& l) {
    out << l << '\n';
    out.flush();
    return !out.fail();
  };

  std::string line;
  bool shutdown = false;
  while (!shutdown) {
    bool oversized = false;
    if (!io::read_line_bounded(in, line, io::kMaxWireLineBytes, oversized)) break;
    std::string response;
    if (oversized) {
      // An over-bound line is a per-request error like any other: the
      // reader already discarded through the next newline, so the
      // framing is intact and the conversation continues.
      if (server != nullptr) {
        server->oversized_lines.fetch_add(1, std::memory_order_relaxed);
      }
      response = io::oversized_line_error(io::kMaxWireLineBytes);
    } else {
      if (io::blank_line(line)) continue;
      const Expected<io::WireRequest> request = io::parse_request(line);
      if (!request) {
        // A malformed line is a per-request error: answer it and keep
        // the stream alive (the framing is by line, so we are in sync).
        response = io::wire_protocol_error(request.status());
      } else if (request.value().kind == io::WireKind::kQuery && request.value().stream) {
        // Streaming runs synchronously here — frames come back-to-back
        // through the same writer (and deadlines never expire, since
        // execution starts immediately).
        net::StreamProgress progress;
        (void)net::run_query_stream(conversation, request.value(), progress, write_line, {});
        if (server != nullptr) {
          server->requests_served.fetch_add(1, std::memory_order_relaxed);
        }
        if (out.fail()) return shutdown;
        continue;
      } else {
        response = net::handle_request(conversation, request.value(), shutdown);
        if (server != nullptr) {
          server->requests_served.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    if (!write_line(response)) {
      // The client is gone (or the pipe broke): a transport failure of
      // *this* conversation only — never a process exit.  A shutdown
      // request was accepted the moment it parsed, though: it still
      // stops the server even when its acknowledgment was unwritable.
      return shutdown;
    }
  }
  return shutdown;
}

Expected<int> bind_serve_socket(int port, int& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::internal(util::cat("socket(): ", util::errno_message(errno)));

  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const Status status =
        Status::internal(util::cat("bind(127.0.0.1:", port, "): ", util::errno_message(errno)));
    ::close(fd);
    return status;
  }
  // The backlog queues clients beyond the admission budget instead of
  // refusing them; SOMAXCONN lets the kernel cap it.
  if (::listen(fd, SOMAXCONN) != 0) {
    const Status status = Status::internal(util::cat("listen(): ", util::errno_message(errno)));
    ::close(fd);
    return status;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port = static_cast<int>(ntohs(bound.sin_port));
  } else {
    bound_port = port;
  }
  return fd;
}

int serve_listener(Engine& engine, int listener_fd, int max_connections, std::ostream& err) {
  net::AsyncServeOptions options;
  options.max_inflight = max_connections;  // <= 0 resolved inside
  net::AsyncServer server(engine, listener_fd, options, err);
  return server.serve() ? 0 : kTransportError;
}

namespace {

/// Graceful-exit spill: persists the engine's store to --store-dir (a
/// no-op without one).  Failures are reported on `err` but never change
/// the exit code — persistence is an optimization, not a correctness
/// requirement of the serve contract.
void spill_store(Engine& engine, std::ostream& err) {
  const StoreSaveResult saved = engine.persist();
  if (!saved.status.is_ok()) {
    err << "serve: snapshot save failed: " << saved.status.message() << "\n";
  }
}

}  // namespace

int cmd_serve(int jobs, std::size_t cache_bytes, const std::string& store_dir,
              long long persist_interval_ms, int listen_port, int max_connections,
              std::istream& in, std::ostream& out, std::ostream& err) {
  // A reader that goes away must fail the write (EPIPE), not kill the
  // process: the stdio path then spills the store and exits
  // kTransportError.  The TCP core already sends with MSG_NOSIGNAL.
  (void)std::signal(SIGPIPE, SIG_IGN);
  if (persist_interval_ms < 0) {
    persist_interval_ms = store_dir.empty() ? 0 : kDefaultServePersistIntervalMs;
  }
  Engine engine{EngineOptions{jobs, cache_bytes, store_dir,
                              store_dir.empty() ? 0 : persist_interval_ms}};
  if (listen_port < 0) {
    // stdio mode is one implicit connection; diagnostics still report
    // the server object so the response shape matches TCP mode.
    net::ServeTelemetry telemetry;
    telemetry.connections_served.store(1, std::memory_order_relaxed);
    telemetry.connections_active.store(1, std::memory_order_relaxed);
    serve_stream(engine, in, out, &telemetry);
    // Both graceful endings — clean EOF and a shutdown wire request —
    // pass through here; only a broken output stream skips the spill's
    // "graceful" label, and even then the save itself is still safe.
    spill_store(engine, err);
    if (out.fail()) {
      err << "serve: output stream failed\n";
      return kTransportError;
    }
    return 0;
  }

  int bound_port = listen_port;
  const Expected<int> listener = bind_serve_socket(listen_port, bound_port);
  if (!listener) {
    err << "serve: " << listener.status().message() << "\n";
    return kTransportError;
  }
  err << "serve: listening on 127.0.0.1:" << bound_port << "\n";
  err.flush();
  const int result = serve_listener(engine, listener.value(), max_connections, err);
  // serve_listener returns only after every connection drained, so the
  // spill sees the final store state (shutdown requests included).
  spill_store(engine, err);
  return result;
}

}  // namespace wharf::cli
