#include "dist/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/expect.hpp"
#include "util/strings.hpp"

namespace wharf::dist {

namespace {

/// Builds the worker command line of spawn mode.  The worker is a stock
/// `wharf serve` on stdio — nothing distributed-specific runs on the
/// worker side, which is what lets --connect target plain remote
/// servers too.
std::vector<std::string> worker_args(const WorkerSpec& spec) {
  std::vector<std::string> args{spec.binary, "serve", "--jobs", util::cat(spec.jobs)};
  if (!spec.store_dir.empty()) {
    args.push_back("--store-dir");
    args.push_back(spec.store_dir);
    if (spec.persist_interval_ms >= 0) {
      args.push_back("--persist-interval");
      args.push_back(util::cat(spec.persist_interval_ms));
    }
  }
  return args;
}

/// A freshly opened transport; pid and pidfd are -1 in connect mode.
struct Endpoint {
  int fd = -1;
  pid_t pid = -1;
  int pidfd = -1;
};

/// Waits for `pid` until it is reaped, retrying on signal interruption.
void wait_blocking(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

Expected<Endpoint> open_spawn(const WorkerSpec& spec) {
  int sv[2];
  // CLOEXEC matters: without it every later-spawned worker inherits
  // this link's coordinator end across its exec, and closing the link
  // then no longer delivers EOF to this worker's stdin until those
  // workers exit too (dup2 below clears the flag on the child's stdio).
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    return Status::internal(util::cat("socketpair(): ", std::strerror(errno)));
  }
  const std::vector<std::string> args = worker_args(spec);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return Status::internal(util::cat("fork(): ", std::strerror(errno)));
  }
  if (pid == 0) {
    // Child: worker end of the socketpair becomes stdio, then exec.
    // Only async-signal-safe calls between fork and exec.
    ::dup2(sv[1], STDIN_FILENO);
    ::dup2(sv[1], STDOUT_FILENO);
    ::close(sv[0]);
    ::close(sv[1]);
    ::execv(argv[0], argv.data());
    _exit(127);  // exec failed; the parent sees immediate EOF
  }
  ::close(sv[1]);
  // Nobody can reap the child before this point, so the pid still names
  // it.  A pidfd is always close-on-exec: later workers never inherit it.
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  if (pidfd < 0) {
    const std::string message = util::cat("pidfd_open(): ", std::strerror(errno));
    ::close(sv[0]);
    ::kill(pid, SIGKILL);
    wait_blocking(pid);
    return Status::internal(message);
  }
  return Endpoint{sv[0], pid, pidfd};
}

Expected<Endpoint> open_connect(const WorkerSpec& spec) {
  WHARF_EXPECT(spec.port > 0, "connect mode needs a port, got " << spec.port);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::internal(util::cat("socket(): ", std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(spec.port));
  const std::string host = spec.host == "localhost" ? "127.0.0.1" : spec.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::invalid_argument(util::cat("cannot parse worker host '", spec.host,
                                              "' (numeric IPv4 or localhost)"));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string message =
        util::cat("connect(", host, ":", spec.port, "): ", std::strerror(errno));
    ::close(fd);
    return Status::internal(message);
  }
  return Endpoint{fd, -1, -1};
}

}  // namespace

std::string self_binary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  WHARF_EXPECT(n > 0, "cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

Expected<WorkerLink> WorkerLink::open(const WorkerSpec& spec) {
  Expected<Endpoint> endpoint = spec.binary.empty() ? open_connect(spec) : open_spawn(spec);
  if (!endpoint.has_value()) return endpoint.status();
  const Endpoint& e = endpoint.value();
  return WorkerLink(e.fd, e.pid, e.pidfd);
}

WorkerLink::~WorkerLink() {
  close_fd();
  close_pidfd();
}

WorkerLink::WorkerLink(WorkerLink&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      pid_(std::exchange(other.pid_, -1)),
      pidfd_(std::exchange(other.pidfd_, -1)),
      lines_(std::move(other.lines_)) {}

WorkerLink& WorkerLink::operator=(WorkerLink&& other) noexcept {
  if (this != &other) {
    close_fd();
    close_pidfd();
    fd_ = std::exchange(other.fd_, -1);
    pid_ = std::exchange(other.pid_, -1);
    pidfd_ = std::exchange(other.pidfd_, -1);
    lines_ = std::move(other.lines_);
  }
  return *this;
}

bool WorkerLink::send_line(const std::string& line) {
  if (fd_ < 0) return false;
  std::string framed = line;
  framed.push_back('\n');
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

Expected<std::string> WorkerLink::read_line(int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string line;
  while (true) {
    switch (lines_.next(line)) {
      case io::LineAssembler::Result::kLine: return line;
      case io::LineAssembler::Result::kOversized:
        return Status::resource_exhausted("worker sent an oversized response line");
      case io::LineAssembler::Result::kNone: break;
    }
    if (fd_ < 0) return Status::internal("worker link is closed");
    const auto now = std::chrono::steady_clock::now();
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count();
    if (left <= 0) {
      return Status::deadline_exceeded(
          util::cat("no worker response line within ", timeout_ms, "ms"));
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      return Status::deadline_exceeded(
          util::cat("no worker response line within ", timeout_ms, "ms"));
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n == 0) return Status::internal("worker closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::internal(util::cat("read(): ", std::strerror(errno)));
    }
    lines_.feed(chunk, static_cast<std::size_t>(n));
  }
}

void WorkerLink::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void WorkerLink::kill_now() {
  if (pid_ > 0) ::kill(pid_, SIGKILL);
}

void WorkerLink::close_pidfd() {
  if (pidfd_ >= 0) {
    ::close(pidfd_);
    pidfd_ = -1;
  }
}

void WorkerLink::reap(int grace_ms) {
  if (pid_ <= 0) return;
  // The pidfd turns readable the moment the child exits, so an exit
  // inside the grace wakes this wait at once.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
  pollfd pfd{pidfd_, POLLIN, 0};
  while (true) {
    const auto left =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - std::chrono::steady_clock::now())
            .count();
    if (left <= 0) break;
    const int ready = ::poll(&pfd, 1, static_cast<int>(left));
    if (ready >= 0 || errno != EINTR) break;
  }
  int status = 0;
  const pid_t done = ::waitpid(pid_, &status, WNOHANG);
  // 0: still running past its grace.  ECHILD: reaped elsewhere already.
  if (done == 0) {
    ::kill(pid_, SIGKILL);
    wait_blocking(pid_);
  }
  pid_ = -1;
  close_pidfd();
}

}  // namespace wharf::dist
