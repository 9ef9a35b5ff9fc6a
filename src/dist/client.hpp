/// \file client.hpp
/// Coordinator-side worker transport: one NDJSON byte stream per worker
/// process, in either of two modes.
///
///  * **spawn**: fork/exec `<binary> serve` with both stdio ends dup'ed
///    onto one AF_UNIX socketpair — the worker speaks the exact stdio
///    protocol of `wharf serve`, the coordinator holds the other end.
///    The child's pid is exposed so fault tests can SIGKILL it.  The link
///    also holds a pidfd for the child (Linux >= 5.3), which turns
///    readable when the child exits: reap() sleeps on it instead of
///    polling waitpid(), so reaping a worker costs its exit, not a timer;
///  * **connect**: a TCP connection to an already-running
///    `wharf serve --listen` worker (possibly on another machine —
///    `wharf sweep --connect host:port,...`).
///
/// A WorkerLink is a dumb pipe plus the read-side line state machine
/// (io::LineAssembler): blocking send_line()/read_line() for tests and
/// simple drivers, or fd() + lines() for the reactor-driven coordinator
/// that must never block.  It is single-caller, like every connection
/// object in wharf.

#ifndef WHARF_DIST_CLIENT_HPP
#define WHARF_DIST_CLIENT_HPP

#include <sys/types.h>

#include <string>
#include <vector>

#include "io/wire.hpp"
#include "util/status.hpp"

namespace wharf::dist {

/// How to reach one worker.  `binary` non-empty selects spawn mode
/// (host/port ignored); empty selects connect mode.
struct WorkerSpec {
  std::string binary;     ///< path of the wharf binary to exec ("" = connect mode)
  int jobs = 1;           ///< worker-side --jobs (spawn mode)
  std::string store_dir;  ///< worker-side --store-dir ("" = no snapshot; spawn mode)
  /// Worker-side --persist-interval in ms (spawn mode; < 0 = serve's
  /// default).  Sweeps keep this short so a killed worker leaves a
  /// near-current snapshot for its respawn to warm-start from.
  long long persist_interval_ms = -1;
  std::string host = "127.0.0.1";  ///< connect mode peer
  int port = 0;                    ///< connect mode port (> 0 selects nothing by itself)
};

/// The path of the currently running executable (/proc/self/exe) — how
/// `wharf sweep` finds the binary to spawn its workers from.
[[nodiscard]] std::string self_binary();

/// One open worker byte stream.  Owns the stream fd and, in spawn mode,
/// the child's pidfd (both closed on destruction); does NOT reap a
/// spawned child — callers own the process lifecycle (kill_now()/reap()
/// help).  Movable, not copyable.
class WorkerLink {
 public:
  /// Opens a link per `spec` (spawn or connect).  Errors (connection
  /// refused, no pidfd for the child, ...) come back as a Status; a
  /// spawned child that cannot get a pidfd is killed and reaped first.
  /// A missing exec target is not an error here: that child exits at
  /// once, and the caller reads EOF.
  [[nodiscard]] static Expected<WorkerLink> open(const WorkerSpec& spec);

  WorkerLink() = default;
  ~WorkerLink();
  WorkerLink(WorkerLink&& other) noexcept;
  WorkerLink& operator=(WorkerLink&& other) noexcept;
  WorkerLink(const WorkerLink&) = delete;
  WorkerLink& operator=(const WorkerLink&) = delete;

  /// The stream fd, or -1 after close_fd()/move-from.
  [[nodiscard]] int fd() const { return fd_; }
  /// The spawned child's pid, or -1 in connect mode.
  [[nodiscard]] pid_t pid() const { return pid_; }
  /// True for spawn mode (there is a child process to reap).
  [[nodiscard]] bool spawned() const { return pid_ > 0; }

  /// The read-side line state machine — the reactor-driven coordinator
  /// feeds raw read() chunks here and drains complete lines.
  [[nodiscard]] io::LineAssembler& lines() { return lines_; }

  /// Blocking write of `line` + '\n'.  False once the transport failed
  /// (EPIPE/ECONNRESET — the worker died or the connection dropped).
  bool send_line(const std::string& line);

  /// Blocking bounded read of the next complete line (poll + feed).
  /// deadline_exceeded after `timeout_ms` without one; internal on EOF
  /// or a transport error.  Test/driver convenience — the coordinator
  /// itself reads through the reactor.
  [[nodiscard]] Expected<std::string> read_line(int timeout_ms);

  /// Closes the stream from this side (coordinator-side disconnect —
  /// the fault tests sever links this way).  A spawned worker sees EOF
  /// on stdin and exits through its graceful persist path.
  void close_fd();

  /// SIGKILLs a spawned worker (no-op in connect mode) — the
  /// mid-flight-crash fault.  The stream stays open until close_fd();
  /// the coordinator observes the death as EOF.
  void kill_now();

  /// Reaps a spawned child: sleeps on its pidfd until it exits, at most
  /// `grace_ms`, then SIGKILLs it if it has not and waits for that.
  /// Returns as soon as the child exits; afterwards pid() is -1 and the
  /// pidfd is closed.  A child reaped elsewhere already (ECHILD) counts
  /// as reaped.  Returns immediately in connect mode.
  void reap(int grace_ms);

 private:
  WorkerLink(int fd, pid_t pid, int pidfd) : fd_(fd), pid_(pid), pidfd_(pidfd) {}

  void close_pidfd();

  int fd_ = -1;
  pid_t pid_ = -1;
  int pidfd_ = -1;  ///< the child's pidfd (spawn mode), else -1
  io::LineAssembler lines_;
};

}  // namespace wharf::dist

#endif  // WHARF_DIST_CLIENT_HPP
