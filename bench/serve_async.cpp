// Async-serve benchmark: ~1k lockstep slow loopback clients — every
// request line dribbled in slices from ONE single-threaded multiplexed
// driver — against the epoll reactor core (net::AsyncServer).
//
// What the reactor must deliver:
//  * flat threads — serving N slow clients costs the same fixed thread
//    count (reactor + pool), so "thread_growth" stays near zero
//    whatever the client count;
//  * nothing lost, nothing reordered — every client gets every
//    response, bit-identical to the same conversation serialized
//    through serve_stream on a fresh engine.
//
// Emits machine-readable "BENCH {...}" JSON lines next to the tables;
// CI gates on the async variant's thread_growth staying flat, on
// lost_responses == 0, on identical_to_serialized, and on the client
// count actually reaching benchmark scale (the fd limit is raised to
// the hard cap first; a clamped run must still beat the gate floor).
//
//   $ ./bench_serve_async
// ---------------------------------------------------------------------

#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/serve.hpp"
#include "engine/engine.hpp"
#include "io/json.hpp"
#include "io/tables.hpp"
#include "net/server.hpp"
#include "tests/support/serve_client.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

using namespace wharf;
using testsupport::results_of;

constexpr const char* kSystemText =
    "system bench\n"
    "chain stage1 kind=sync activation=periodic(300) deadline=300\n"
    "  task s1a prio=6 wcet=20\n"
    "  task s1b prio=2 wcet=25\n"
    "chain stage2 kind=sync activation=periodic(300) deadline=300\n"
    "  task s2a prio=5 wcet=15\n"
    "  task s2b prio=1 wcet=30\n";

/// Every client replays this conversation (open, query, close) — small
/// on purpose: the bench stresses connection scale, not solver depth.
std::vector<std::string> conversation() {
  return {
      util::cat(R"({"id":1,"type":"open_session","session":"m","system":")",
                io::json_escape(kSystemText), "\"}"),
      R"({"id":2,"type":"query","session":"m","queries":[{"kind":"latency","chain":"stage1"},{"kind":"dmm","chain":"stage1","ks":[5,10]}]})",
      R"({"id":3,"type":"close","session":"m"})",
  };
}

/// The kernel thread count of this process (/proc/self/status).
int thread_count() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

/// Raises RLIMIT_NOFILE to its hard cap and returns the resulting soft
/// limit (the client-count clamp below keeps a wide safety margin).
long raise_fd_limit() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return 1024;
  limit.rlim_cur = limit.rlim_max;
  (void)::setrlimit(RLIMIT_NOFILE, &limit);
  (void)::getrlimit(RLIMIT_NOFILE, &limit);
  return static_cast<long>(limit.rlim_cur);
}

// ---------------------------------------------------------------------
// The multiplexed lockstep driver
// ---------------------------------------------------------------------

/// Outcome of one driver run against the reactor.
struct Outcome {
  int clients = 0;
  double seconds = 0;
  long long responses = 0;
  long long lost_responses = 0;
  int base_threads = 0;
  int peak_threads = 0;
  bool identical = true;  ///< every query answer == the serialized oracle

  [[nodiscard]] int thread_growth() const { return peak_threads - base_threads; }
  [[nodiscard]] double requests_per_sec() const {
    return seconds > 0 ? static_cast<double>(responses) / seconds : 0.0;
  }
};

/// Replays `lines` through `clients` concurrently-open nonblocking
/// sockets in lockstep: every client receives request r in `kSlices`
/// dribbled fragments (the archetypal slow client), and no client sends
/// request r+1 before EVERY client was answered for r.  One driver
/// thread multiplexes all of them — the client side costs what the
/// reactor side costs.
Outcome run_lockstep(int port, int clients, const std::vector<std::string>& lines,
                     const std::string& oracle_results) {
  constexpr int kSlices = 3;
  Outcome outcome;
  outcome.clients = clients;
  outcome.base_threads = thread_count();
  outcome.peak_threads = outcome.base_threads;

  std::vector<int> fds(static_cast<std::size_t>(clients), -1);
  std::vector<std::string> buffers(static_cast<std::size_t>(clients));
  std::vector<std::vector<std::string>> replies(static_cast<std::size_t>(clients));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  for (int c = 0; c < clients; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;  // clamp failed us anyway; lost_responses reports it
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      break;
    }
    const int flags = ::fcntl(fd, F_GETFL, 0);
    (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    fds[static_cast<std::size_t>(c)] = fd;
  }

  util::Stopwatch clock;
  for (std::size_t r = 0; r < lines.size(); ++r) {
    const std::string framed = lines[r] + "\n";
    // Dribble: every client gets fragment s before any client gets
    // fragment s+1, with a breath between fragment waves.
    const std::size_t slice = (framed.size() + kSlices - 1) / kSlices;
    for (int s = 0; s < kSlices; ++s) {
      const std::size_t lo = std::min(framed.size(), static_cast<std::size_t>(s) * slice);
      const std::size_t hi = std::min(framed.size(), lo + slice);
      if (lo == hi) continue;
      for (int c = 0; c < clients; ++c) {
        const int fd = fds[static_cast<std::size_t>(c)];
        if (fd < 0) continue;
        std::size_t sent = lo;
        while (sent < hi) {
          const ssize_t n = ::send(fd, framed.data() + sent, hi - sent, MSG_NOSIGNAL);
          if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            pollfd pfd{fd, POLLOUT, 0};
            (void)::poll(&pfd, 1, 1000);
            continue;
          }
          ::close(fd);
          fds[static_cast<std::size_t>(c)] = -1;
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // Barrier: wait until every live client holds its r-th response.
    const auto barrier_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (true) {
      std::vector<pollfd> waiting;
      std::vector<int> owner;
      for (int c = 0; c < clients; ++c) {
        const int fd = fds[static_cast<std::size_t>(c)];
        if (fd < 0 || replies[static_cast<std::size_t>(c)].size() > r) continue;
        waiting.push_back(pollfd{fd, POLLIN, 0});
        owner.push_back(c);
      }
      if (waiting.empty()) break;
      if (std::chrono::steady_clock::now() > barrier_deadline) break;  // lost, gated
      const int ready = ::poll(waiting.data(), static_cast<nfds_t>(waiting.size()), 1000);
      outcome.peak_threads = std::max(outcome.peak_threads, thread_count());
      if (ready <= 0) continue;
      for (std::size_t w = 0; w < waiting.size(); ++w) {
        if ((waiting[w].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const int c = owner[w];
        char chunk[4096];
        const ssize_t n = ::read(waiting[w].fd, chunk, sizeof chunk);
        if (n <= 0) {
          ::close(waiting[w].fd);
          fds[static_cast<std::size_t>(c)] = -1;
          continue;
        }
        std::string& buffer = buffers[static_cast<std::size_t>(c)];
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t newline = 0;
        while ((newline = buffer.find('\n')) != std::string::npos) {
          replies[static_cast<std::size_t>(c)].push_back(buffer.substr(0, newline));
          buffer.erase(0, newline + 1);
        }
      }
    }
    outcome.peak_threads = std::max(outcome.peak_threads, thread_count());
  }
  outcome.seconds = clock.seconds();

  for (int c = 0; c < clients; ++c) {
    const int fd = fds[static_cast<std::size_t>(c)];
    if (fd >= 0) ::close(fd);
    const std::vector<std::string>& got = replies[static_cast<std::size_t>(c)];
    outcome.responses += static_cast<long long>(got.size());
    outcome.lost_responses += static_cast<long long>(lines.size() - got.size());
    // Reply 1 is the query's: its answers must match the oracle exactly.
    if (got.size() < 2 || results_of(got[1]) != oracle_results) outcome.identical = false;
  }
  return outcome;
}

// ---------------------------------------------------------------------
// Variants
// ---------------------------------------------------------------------

/// The same conversation serialized through serve_stream on a fresh
/// engine: the bit-identity oracle for every client.
std::string oracle() {
  std::ostringstream text;
  for (const std::string& line : conversation()) text << line << '\n';
  Engine engine;
  std::istringstream in(text.str());
  std::ostringstream out;
  (void)cli::serve_stream(engine, in, out);
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"report\":") != std::string::npos) return results_of(line);
  }
  return "<no oracle>";
}

/// The async reactor core: a wide request budget (the driver keeps all
/// clients in flight) over a deliberately tiny fixed pool — the flat
/// thread count IS the claim under test.
Outcome run_async(int clients, const std::string& oracle_results) {
  Engine engine;
  int port = 0;
  const Expected<int> listener = cli::bind_serve_socket(0, port);
  if (!listener) {
    std::cerr << "bench: " << listener.status().to_string() << "\n";
    std::exit(1);
  }
  net::AsyncServeOptions options;
  options.max_inflight = clients + 8;
  options.pool_threads = 4;
  std::ostringstream err;
  net::AsyncServer server(engine, listener.value(), options, err);
  std::thread loop([&] { (void)server.serve(); });
  Outcome outcome = run_lockstep(port, clients, conversation(), oracle_results);

  {
    // Scoped: the server only exits once every connection (including
    // the closer's) is gone.
    testsupport::ServeClient closer(port);
    (void)closer.roundtrip(R"({"type":"shutdown"})");
  }
  loop.join();
  return outcome;
}

void emit_bench_json(const char* variant, const Outcome& o) {
  std::ostringstream os;
  io::JsonWriter w(os);
  w.begin_object();
  w.key("name");
  w.value("serve_async");
  w.key("variant");
  w.value(variant);
  w.key("clients");
  w.value(o.clients);
  w.key("responses");
  w.value(o.responses);
  w.key("lost_responses");
  w.value(o.lost_responses);
  w.key("seconds");
  w.value(o.seconds);
  w.key("requests_per_sec");
  w.value(o.requests_per_sec());
  w.key("base_threads");
  w.value(o.base_threads);
  w.key("peak_threads");
  w.value(o.peak_threads);
  w.key("thread_growth");
  w.value(o.thread_growth());
  w.key("identical_to_serialized");
  w.value(o.identical);
  w.end_object();
  std::cout << "BENCH " << os.str() << '\n';
}

/// Integer environment override (WHARF_BENCH_CLIENTS trims the run on
/// cramped machines); `fallback` when unset or unparsable.
int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoi(value) > 0 ? std::atoi(value) : fallback;
}

void print_tables() {
  const long fd_limit = raise_fd_limit();
  // Every client needs one driver-side and one server-side descriptor;
  // keep half the limit in reserve for the process itself.
  const int async_clients = env_int(
      "WHARF_BENCH_CLIENTS", static_cast<int>(std::clamp(fd_limit / 4 - 64, 16L, 1000L)));

  const std::string oracle_results = oracle();
  const Outcome outcome = run_async(async_clients, oracle_results);

  std::cout << "=== wharf serve: " << async_clients
            << " lockstep slow clients on the epoll reactor ===\n";
  io::TextTable table({"variant", "clients", "responses", "lost", "seconds", "req/s",
                       "base threads", "peak threads", "growth"});
  table.add_row({"async (reactor + fixed pool)", util::cat(outcome.clients),
                 util::cat(outcome.responses), util::cat(outcome.lost_responses),
                 util::cat(outcome.seconds), util::cat(outcome.requests_per_sec()),
                 util::cat(outcome.base_threads), util::cat(outcome.peak_threads),
                 util::cat(outcome.thread_growth())});
  std::cout << table.render();
  std::cout << "async thread growth: " << outcome.thread_growth()
            << "; answers bit-identical: " << (outcome.identical ? "yes" : "NO — BUG") << "\n\n";

  emit_bench_json("async", outcome);
}

void BM_AsyncLockstep(benchmark::State& state) {
  // End-to-end wall time of 16 lockstep dribbling clients against the
  // reactor (connect, open/query/close, drain).
  const std::string oracle_results = oracle();
  for (auto _ : state) {
    const Outcome outcome = run_async(16, oracle_results);
    benchmark::DoNotOptimize(outcome.responses);
  }
}
BENCHMARK(BM_AsyncLockstep)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
