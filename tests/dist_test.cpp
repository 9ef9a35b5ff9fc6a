// Worker-fault battery for the sharded sweep coordinator (dist/): a
// worker SIGKILL'ed mid-unit, a worker that accepts units and never
// answers (deadline-driven re-issue), a worker answering with error
// envelopes (disqualification), a coordinator-side disconnect, and an
// oversized worker response — each asserting the merged report stays
// bit-identical to the 1-worker / in-process oracle.  Plus the
// randomized differential sweep (random systems x worker counts x kill
// schedules), the periodic-persist regression (a killed worker must
// leave a snapshot its respawn warm-starts from), and the worker
// lifecycle: reap() wakes on exit, kills a worker past its grace, and a
// sweep leaves no fd behind.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/serve.hpp"
#include "core/system.hpp"
#include "dist/client.hpp"
#include "dist/coordinator.hpp"
#include "dist/shard.hpp"
#include "engine/engine.hpp"
#include "engine/store_persist.hpp"
#include "gen/random_systems.hpp"
#include "io/json.hpp"
#include "io/system_format.hpp"
#include "io/wire.hpp"
#include "search/priority_search.hpp"
#include "tests/support/serve_client.hpp"
#include "util/expect.hpp"
#include "util/strings.hpp"

namespace wharf::dist {
namespace {

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

/// Three tasks -> 3! = 6 permutations: small enough that every fault
/// scenario sweeps the full space in milliseconds.
std::string tiny_text() {
  return
      "system tiny\n"
      "chain a kind=sync activation=periodic(100) deadline=90\n"
      "  task a1 prio=1 wcet=10\n"
      "  task a2 prio=2 wcet=10\n"
      "chain b kind=sync activation=periodic(200) deadline=150\n"
      "  task b1 prio=3 wcet=20\n";
}

System tiny_system() { return io::parse_system(tiny_text()); }

WorkerSpec spawn_spec() {
  WorkerSpec spec;
  spec.binary = WHARF_BINARY_PATH;
  return spec;
}

WorkerSpec connect_spec(int port) {
  WorkerSpec spec;
  spec.host = "127.0.0.1";
  spec.port = port;
  return spec;
}

/// The bit-identity assertion every fault scenario ends on: the merged
/// sweep result must equal the sequential oracle field by field.
void expect_identical(const SweepOutcome& outcome, const search::Objective& nominal,
                      const search::SearchResult& oracle) {
  EXPECT_EQ(outcome.nominal.chains_missing, nominal.chains_missing);
  EXPECT_EQ(outcome.nominal.total_dmm, nominal.total_dmm);
  EXPECT_EQ(outcome.nominal.total_wcl, nominal.total_wcl);
  EXPECT_EQ(outcome.result.best_priorities, oracle.best_priorities);
  EXPECT_EQ(outcome.result.best_objective.chains_missing, oracle.best_objective.chains_missing);
  EXPECT_EQ(outcome.result.best_objective.total_dmm, oracle.best_objective.total_dmm);
  EXPECT_EQ(outcome.result.best_objective.total_wcl, oracle.best_objective.total_wcl);
  EXPECT_EQ(outcome.result.evaluations, oracle.evaluations);
}

/// The number of fds this process holds open.
std::ptrdiff_t open_fd_count() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                       std::filesystem::directory_iterator());
}

/// True once `pid` is no child of this process (reaped, no zombie left).
bool reaped(pid_t pid) {
  int status = 0;
  return ::waitpid(pid, &status, WNOHANG) == -1 && errno == ECHILD;
}

/// A scratch --store-dir family root with recursive cleanup (worker
/// subdirectories included).
struct TempDir {
  std::string path;
  TempDir() {
    char name[] = "/tmp/wharf_dist_test_XXXXXX";
    const char* made = ::mkdtemp(name);
    EXPECT_NE(made, nullptr);
    path = made == nullptr ? "" : made;
  }
  ~TempDir() {
    if (path.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

// ---------------------------------------------------------------------
// Scripted stand-in workers
// ---------------------------------------------------------------------

/// A scripted stand-in worker: a loopback listener whose accepted
/// connection is driven line by line through `on_line` (return "" to
/// stay silent — the hung-worker behavior).  Connections are handled
/// sequentially, matching the coordinator's one-link-per-worker
/// topology (a reconnect arrives only after the previous link died).
/// `ended_connections()` counts the links that have ended, so another
/// scripted worker can wait for this one to be dropped.
class FakeWorker {
 public:
  using Handler = std::function<std::string(const std::string&)>;

  explicit FakeWorker(Handler on_line) : on_line_(std::move(on_line)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }

  ~FakeWorker() {
    // shutdown() on the listening socket unblocks a parked accept().
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] int ended_connections() const { return ended_connections_.load(); }

 private:
  void serve() {
    while (true) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      handle(fd);
      ::close(fd);
      ++ended_connections_;
    }
  }

  void handle(int fd) {
    std::string buffer;
    char chunk[4096];
    while (true) {
      const auto newline = buffer.find('\n');
      if (newline != std::string::npos) {
        const std::string line = buffer.substr(0, newline);
        buffer.erase(0, newline + 1);
        const std::string response = on_line_(line);
        if (!response.empty() && !send_all(fd, response + "\n")) return;
        continue;
      }
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n <= 0) return;  // coordinator closed the link (or it died)
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }

  static bool send_all(int fd, const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  Handler on_line_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<int> ended_connections_{0};
  std::thread thread_;
};

bool is_open_request(const std::string& line) {
  return line.find("\"type\":\"open_session\"") != std::string::npos;
}

std::string open_ack() {
  return R"({"type":"open_session","session":"sweep","status":"ok"})";
}

/// The correct evaluate response a real worker would send, computed
/// in-process — lets a scripted worker answer truthfully while the test
/// controls *when*.
std::string evaluate_ok(search::Evaluator& evaluator, const std::string& line) {
  const Expected<io::WireRequest> request = io::parse_request(line);
  EXPECT_TRUE(request) << request.status().to_string();
  const std::vector<search::Objective> objectives =
      evaluator.evaluate_many(request.value().candidates);
  std::string out = util::cat(R"({"type":"evaluate","session":"sweep","status":"ok","unit":)",
                              request.value().unit, ",\"objectives\":[");
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    if (i != 0) out += ',';
    out += util::cat("{\"chains_missing\":", objectives[i].chains_missing,
                     ",\"total_dmm\":", objectives[i].total_dmm,
                     ",\"total_wcl\":", objectives[i].total_wcl, "}");
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------
// Shard planning and merging (pure, no processes)
// ---------------------------------------------------------------------

TEST(DistShard, PlanningCutsContiguousDenseUnits) {
  std::vector<std::vector<Priority>> candidates;
  for (Priority p = 1; p <= 10; ++p) candidates.push_back({p});
  const std::vector<WorkUnit> units = plan_units(candidates, 4);
  ASSERT_EQ(units.size(), 3u);  // 4 + 4 + 2
  for (std::size_t i = 0; i < units.size(); ++i) {
    EXPECT_EQ(units[i].id, i + 1);  // ids dense from 1 (0 = nominal)
    EXPECT_EQ(units[i].first, i * 4);
  }
  EXPECT_EQ(units[0].candidates.size(), 4u);
  EXPECT_EQ(units[2].candidates.size(), 2u);
  EXPECT_EQ(units[2].candidates[1], candidates[9]);

  EXPECT_THROW((void)plan_units(candidates, 0), InvalidArgument);
  EXPECT_THROW((void)plan_units({}, 4), InvalidArgument);

  // The default unit size keeps several units per worker and respects
  // the [1, 128] clamp.
  EXPECT_EQ(default_unit_size(4, 8), 1u);
  EXPECT_LE(default_unit_size(1 << 20, 1), 128u);
  const std::size_t size = default_unit_size(1000, 4);
  EXPECT_GE(1000 / size, 4u * 2u);  // enough units that stealing can move work
}

TEST(DistShard, MergeMatchesTheSequentialFoldBitForBit) {
  const System system = tiny_system();
  const std::vector<std::vector<Priority>> candidates = search::exhaustive_candidates(system);
  ASSERT_EQ(candidates.size(), 6u);

  search::EvaluationSpec spec;
  spec.k = 5;
  search::PipelineEvaluator evaluator(system, spec);
  const std::vector<search::Objective> objectives = evaluator.evaluate_many(candidates);
  const search::SearchResult merged = merge_objectives(candidates, objectives);

  search::PipelineEvaluator oracle_evaluator(system, spec);
  const search::SearchResult oracle = search::exhaustive_search(oracle_evaluator);
  EXPECT_EQ(merged.best_priorities, oracle.best_priorities);
  EXPECT_EQ(merged.best_objective, oracle.best_objective);
  EXPECT_EQ(merged.evaluations, oracle.evaluations);

  // Size mismatches are contract violations, not silent truncation.
  std::vector<search::Objective> short_table(objectives.begin(), objectives.end() - 1);
  EXPECT_THROW((void)merge_objectives(candidates, short_table), InvalidArgument);
  EXPECT_THROW((void)merge_objectives(candidates, {}), InvalidArgument);
}

// ---------------------------------------------------------------------
// The fault battery (real spawned workers + scripted peers)
// ---------------------------------------------------------------------

TEST(DistFaults, TwoWorkersMatchTheSequentialSearch) {
  const System system = tiny_system();
  const std::vector<std::vector<Priority>> candidates = search::exhaustive_candidates(system);
  search::EvaluationSpec espec;
  espec.k = 5;
  search::PipelineEvaluator oracle_evaluator(system, espec);
  const search::SearchResult oracle = search::exhaustive_search(oracle_evaluator);
  const search::Objective nominal = oracle_evaluator.evaluate(system.flat_priorities());

  SweepOptions sweep;
  sweep.k = 5;
  sweep.unit_size = 1;
  const std::vector<WorkerSpec> workers(2, spawn_spec());
  const Expected<SweepOutcome> outcome = run_sweep(system, {}, candidates, workers, sweep);
  ASSERT_TRUE(outcome) << outcome.status().to_string();
  expect_identical(outcome.value(), nominal, oracle);
  EXPECT_EQ(outcome.value().telemetry.workers, 2);
  EXPECT_EQ(outcome.value().telemetry.units, 7u);  // nominal + 6 single-candidate units
  EXPECT_EQ(outcome.value().telemetry.worker_deaths, 0);
  EXPECT_EQ(outcome.value().telemetry.protocol_errors, 0);
}

TEST(DistFaults, SigkilledWorkerMidUnitRespawnsAndStaysIdentical) {
  const System system = tiny_system();
  const std::vector<std::vector<Priority>> candidates = search::exhaustive_candidates(system);
  search::EvaluationSpec espec;
  espec.k = 5;
  search::PipelineEvaluator oracle_evaluator(system, espec);
  const search::SearchResult oracle = search::exhaustive_search(oracle_evaluator);
  const search::Objective nominal = oracle_evaluator.evaluate(system.flat_priorities());

  // One worker, killed after two completed units: the sweep *cannot*
  // finish unless the death is observed, the outstanding units requeue,
  // and the respawn (same store dir -> warm start) picks them back up.
  TempDir store;
  WorkerSpec spec = spawn_spec();
  spec.store_dir = util::cat(store.path, "/worker-0");
  spec.persist_interval_ms = 10;

  SweepOptions sweep;
  sweep.k = 5;
  sweep.unit_size = 1;
  FaultInjection kill;
  kill.kind = FaultInjection::Kind::kKillWorker;
  kill.worker = 0;
  kill.after_units = 2;
  sweep.faults.push_back(kill);

  const std::ptrdiff_t fds_before = open_fd_count();
  const Expected<SweepOutcome> outcome = run_sweep(system, {}, candidates, {spec}, sweep);
  ASSERT_TRUE(outcome) << outcome.status().to_string();
  expect_identical(outcome.value(), nominal, oracle);
  EXPECT_GE(outcome.value().telemetry.worker_deaths, 1);
  EXPECT_GE(outcome.value().telemetry.worker_restarts, 1);
  EXPECT_EQ(outcome.value().telemetry.protocol_errors, 0);
  // The killed worker's stream and pidfd went with it, the respawn's at
  // retirement.
  EXPECT_EQ(open_fd_count(), fds_before);
}

TEST(DistFaults, CoordinatorSideDisconnectReissuesAndStaysIdentical) {
  const System system = tiny_system();
  const std::vector<std::vector<Priority>> candidates = search::exhaustive_candidates(system);
  search::EvaluationSpec espec;
  espec.k = 5;
  search::PipelineEvaluator oracle_evaluator(system, espec);
  const search::SearchResult oracle = search::exhaustive_search(oracle_evaluator);
  const search::Objective nominal = oracle_evaluator.evaluate(system.flat_priorities());

  SweepOptions sweep;
  sweep.k = 5;
  sweep.unit_size = 1;
  FaultInjection drop;
  drop.kind = FaultInjection::Kind::kDropConnection;
  drop.worker = 0;
  drop.after_units = 2;
  sweep.faults.push_back(drop);

  const std::vector<WorkerSpec> workers(2, spawn_spec());
  const std::ptrdiff_t fds_before = open_fd_count();
  const Expected<SweepOutcome> outcome = run_sweep(system, {}, candidates, workers, sweep);
  ASSERT_TRUE(outcome) << outcome.status().to_string();
  expect_identical(outcome.value(), nominal, oracle);
  // The disconnect is synchronous, so the death is always observed.
  EXPECT_GE(outcome.value().telemetry.worker_deaths, 1);
  EXPECT_GE(outcome.value().telemetry.worker_restarts, 1);
  EXPECT_EQ(open_fd_count(), fds_before);
}

TEST(DistFaults, HungWorkerUnitsReissueOnDeadline) {
  const System system = tiny_system();
  const std::vector<std::vector<Priority>> candidates = search::exhaustive_candidates(system);
  search::EvaluationSpec espec;
  espec.k = 5;
  search::PipelineEvaluator oracle_evaluator(system, espec);
  const search::SearchResult oracle = search::exhaustive_search(oracle_evaluator);
  const search::Objective nominal = oracle_evaluator.evaluate(system.flat_priorities());

  // Worker 0 accepts units and never answers; worker 1 answers
  // correctly but only after a delay far beyond the unit deadline, so
  // the hung worker's units are *provably* incomplete when their
  // deadline fires — the re-issue path, not the steal path, must move
  // them (a steal could only land after worker 1's first slow answer).
  FakeWorker hung([](const std::string& line) {
    return is_open_request(line) ? open_ack() : std::string();
  });
  search::PipelineEvaluator evaluator(system, espec);
  FakeWorker slow([&evaluator](const std::string& line) {
    if (is_open_request(line)) return open_ack();
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    return evaluate_ok(evaluator, line);
  });

  SweepOptions sweep;
  sweep.k = 5;
  sweep.unit_size = 2;
  sweep.unit_deadline_ms = 15;
  const std::vector<WorkerSpec> workers = {connect_spec(hung.port()), connect_spec(slow.port())};
  const Expected<SweepOutcome> outcome = run_sweep(system, {}, candidates, workers, sweep);
  ASSERT_TRUE(outcome) << outcome.status().to_string();
  expect_identical(outcome.value(), nominal, oracle);
  EXPECT_GE(outcome.value().telemetry.reissued_units, 1);
  EXPECT_EQ(outcome.value().telemetry.protocol_errors, 0);
}

TEST(DistFaults, ErrorEnvelopeDisqualifiesTheWorkerWithoutRestart) {
  const System system = tiny_system();
  const std::vector<std::vector<Priority>> candidates = search::exhaustive_candidates(system);
  search::EvaluationSpec espec;
  espec.k = 5;
  search::PipelineEvaluator oracle_evaluator(system, espec);
  const search::SearchResult oracle = search::exhaustive_search(oracle_evaluator);
  const search::Objective nominal = oracle_evaluator.evaluate(system.flat_priorities());

  // Worker 0 answers every unit with an error envelope; its first
  // answer must disqualify it (no restart — the process is alive but
  // unusable) and its units must complete on the healthy worker.
  int faulty_connections = 0;
  FakeWorker faulty([&faulty_connections](const std::string& line) -> std::string {
    if (is_open_request(line)) {
      ++faulty_connections;
      return open_ack();
    }
    return R"({"type":"evaluate","session":"sweep","status":"invalid-argument",)"
           R"("reason":"scripted evaluation fault"})";
  });
  // The partner answers truthfully, but only once the coordinator has
  // dropped the faulty link: a free-running partner could steal the
  // faulty worker's units and finish the sweep before the first error
  // envelope was ever read, which the scheduler is allowed to do.  One
  // give-up deadline for the whole sweep (not renewed per line) means
  // a coordinator that never disqualifies fails the assertions below
  // instead of hanging.
  search::PipelineEvaluator evaluator(system, espec);
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  FakeWorker gated([&evaluator, &faulty, give_up](const std::string& line) {
    if (is_open_request(line)) return open_ack();
    while (faulty.ended_connections() == 0 && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return evaluate_ok(evaluator, line);
  });

  SweepOptions sweep;
  sweep.k = 5;
  sweep.unit_size = 1;
  const std::vector<WorkerSpec> workers = {connect_spec(faulty.port()),
                                           connect_spec(gated.port())};
  const Expected<SweepOutcome> outcome = run_sweep(system, {}, candidates, workers, sweep);
  ASSERT_TRUE(outcome) << outcome.status().to_string();
  expect_identical(outcome.value(), nominal, oracle);
  EXPECT_GE(outcome.value().telemetry.protocol_errors, 1);
  EXPECT_GE(outcome.value().telemetry.worker_deaths, 1);
  EXPECT_EQ(outcome.value().telemetry.worker_restarts, 0);  // disqualified, never retried
  EXPECT_EQ(faulty_connections, 1);                         // and never reconnected
}

TEST(DistFaults, OversizedWorkerResponseDisqualifies) {
  const System system = tiny_system();
  const std::vector<std::vector<Priority>> candidates = search::exhaustive_candidates(system);
  search::EvaluationSpec espec;
  espec.k = 5;
  search::PipelineEvaluator oracle_evaluator(system, espec);
  const search::SearchResult oracle = search::exhaustive_search(oracle_evaluator);
  const search::Objective nominal = oracle_evaluator.evaluate(system.flat_priorities());

  // A worker whose evaluate "answer" blows the protocol line bound is a
  // protocol fault like any other: disqualify, re-issue elsewhere.
  FakeWorker shouty([](const std::string& line) -> std::string {
    if (is_open_request(line)) return open_ack();
    return std::string(io::kMaxWireLineBytes + 16, 'x');
  });
  // The partner answers truthfully, but only once the coordinator has
  // dropped the shouty link: a free-running partner could steal the
  // shouty worker's units and finish the sweep before the oversized
  // line was ever read, which the scheduler is allowed to do.  One
  // give-up deadline for the whole sweep (not renewed per line) means
  // a coordinator that never disqualifies fails the assertion below
  // instead of hanging.
  search::PipelineEvaluator evaluator(system, espec);
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  FakeWorker gated([&evaluator, &shouty, give_up](const std::string& line) {
    if (is_open_request(line)) return open_ack();
    while (shouty.ended_connections() == 0 && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return evaluate_ok(evaluator, line);
  });

  SweepOptions sweep;
  sweep.k = 5;
  sweep.unit_size = 1;
  const std::vector<WorkerSpec> workers = {connect_spec(shouty.port()),
                                           connect_spec(gated.port())};
  const Expected<SweepOutcome> outcome = run_sweep(system, {}, candidates, workers, sweep);
  ASSERT_TRUE(outcome) << outcome.status().to_string();
  expect_identical(outcome.value(), nominal, oracle);
  EXPECT_GE(outcome.value().telemetry.protocol_errors, 1);
}

TEST(DistFaults, AllWorkersLostFailsWithResourceExhaustion) {
  const System system = tiny_system();
  const std::vector<std::vector<Priority>> candidates = search::exhaustive_candidates(system);

  // The only worker disqualifies itself on its first unit: the sweep
  // must come back as a clean non-OK status, never a hang.
  FakeWorker faulty([](const std::string& line) -> std::string {
    if (is_open_request(line)) return open_ack();
    return R"({"type":"error","status":"parse-error","reason":"scripted protocol fault"})";
  });

  SweepOptions sweep;
  sweep.k = 5;
  sweep.unit_size = 1;
  const Expected<SweepOutcome> outcome =
      run_sweep(system, {}, candidates, {connect_spec(faulty.port())}, sweep);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(outcome.status().message().find("units incomplete"), std::string::npos);
}

TEST(DistFaults, UnstartableWorkerBinaryFailsCleanly) {
  const System system = tiny_system();
  const std::vector<std::vector<Priority>> candidates = search::exhaustive_candidates(system);

  WorkerSpec spec;
  spec.binary = "/nonexistent/wharf-worker-binary";
  SweepOptions sweep;
  sweep.k = 5;
  const Expected<SweepOutcome> outcome = run_sweep(system, {}, candidates, {spec}, sweep);
  // exec failure surfaces as instant EOF: the restart budget burns down
  // and the sweep reports exhaustion instead of spinning forever.
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.status().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------
// Worker lifecycle
// ---------------------------------------------------------------------

TEST(DistLifecycle, ReapWakesOnExit) {
  Expected<WorkerLink> opened = WorkerLink::open(spawn_spec());
  ASSERT_TRUE(opened) << opened.status().to_string();
  WorkerLink worker = std::move(opened.value());
  const pid_t pid = worker.pid();
  ASSERT_GT(pid, 0);
  // EOF on stdin: `wharf serve` exits by itself, well inside the grace.
  worker.close_fd();
  worker.reap(/*grace_ms=*/5000);
  EXPECT_EQ(worker.pid(), -1);
  EXPECT_TRUE(reaped(pid));
}

TEST(DistLifecycle, ReapKillsAWorkerPastItsGrace) {
  // A stand-in worker that announces itself, then ignores EOF on its
  // stdin: only the SIGKILL past the grace ends it.
  TempDir dir;
  const std::string script = util::cat(dir.path, "/stubborn-worker");
  {
    std::ofstream out(script);
    out << "#!/bin/sh\necho started\nexec sleep 30\n";
  }
  ASSERT_EQ(::chmod(script.c_str(), 0755), 0);
  WorkerSpec spec;
  spec.binary = script;

  Expected<WorkerLink> opened = WorkerLink::open(spec);
  ASSERT_TRUE(opened) << opened.status().to_string();
  WorkerLink worker = std::move(opened.value());
  const pid_t pid = worker.pid();
  Expected<std::string> started = worker.read_line(20000);
  ASSERT_TRUE(started) << started.status().to_string();
  EXPECT_EQ(started.value(), "started");

  worker.close_fd();
  const auto begin = std::chrono::steady_clock::now();
  worker.reap(/*grace_ms=*/200);
  EXPECT_LT(std::chrono::steady_clock::now() - begin, std::chrono::seconds(2));
  EXPECT_EQ(worker.pid(), -1);
  EXPECT_TRUE(reaped(pid));
}

TEST(DistLifecycle, SweepLeavesNoFds) {
  const System system = tiny_system();
  const std::vector<std::vector<Priority>> candidates = search::exhaustive_candidates(system);
  SweepOptions sweep;
  sweep.k = 5;
  sweep.unit_size = 1;
  const std::vector<WorkerSpec> workers(2, spawn_spec());
  const std::ptrdiff_t fds_before = open_fd_count();
  const Expected<SweepOutcome> outcome = run_sweep(system, {}, candidates, workers, sweep);
  ASSERT_TRUE(outcome) << outcome.status().to_string();
  EXPECT_EQ(open_fd_count(), fds_before);
}

// ---------------------------------------------------------------------
// Randomized differential sweep
// ---------------------------------------------------------------------

TEST(DistDifferential, RandomSystemsWorkerCountsAndKillSchedules) {
  // One real serve worker pool: an in-process TCP listener every
  // connect-mode worker dials into (reconnects after a drop included).
  Engine engine;
  int port = 0;
  const Expected<int> listener = cli::bind_serve_socket(0, port);
  ASSERT_TRUE(listener) << listener.status().to_string();
  ASSERT_GT(port, 0);
  std::ostringstream err;
  std::thread server([&] { (void)cli::serve_listener(engine, listener.value(), 16, err); });

  constexpr int kSeeds = 50;
  constexpr int kSamples = 8;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    std::mt19937_64 rng(seed * 977);
    gen::RandomSystemSpec spec;
    spec.min_chains = 2;
    spec.max_chains = 3;
    spec.min_tasks = 1;
    spec.max_tasks = 2;
    const System system = gen::random_system(spec, rng, util::cat("diff", seed));
    const std::vector<std::vector<Priority>> candidates =
        search::random_candidates(system, kSamples, seed);

    search::EvaluationSpec espec;
    espec.k = 4;
    search::PipelineEvaluator oracle_evaluator(system, espec);
    const search::SearchResult oracle = search::random_search(oracle_evaluator, kSamples, seed);
    const search::Objective nominal = oracle_evaluator.evaluate(system.flat_priorities());

    for (const int workers : {1, 2, 4}) {
      SweepOptions sweep;
      sweep.k = 4;
      sweep.unit_size = 1;
      if (workers > 1) {
        // A random kill schedule: 1-2 disconnects at random progress
        // points, against random workers.
        const int drops = 1 + static_cast<int>(rng() % 2);
        for (int f = 0; f < drops; ++f) {
          FaultInjection fault;
          fault.kind = FaultInjection::Kind::kDropConnection;
          fault.worker = static_cast<int>(rng() % static_cast<std::uint64_t>(workers));
          fault.after_units = 1 + rng() % candidates.size();
          sweep.faults.push_back(fault);
        }
        std::sort(sweep.faults.begin(), sweep.faults.end(),
                  [](const FaultInjection& a, const FaultInjection& b) {
                    return a.after_units < b.after_units;
                  });
      }
      const std::vector<WorkerSpec> specs(static_cast<std::size_t>(workers),
                                          connect_spec(port));
      const Expected<SweepOutcome> outcome = run_sweep(system, {}, candidates, specs, sweep);
      ASSERT_TRUE(outcome) << "seed " << seed << ", " << workers
                           << " workers: " << outcome.status().to_string();
      SCOPED_TRACE(util::cat("seed ", seed, ", ", workers, " workers"));
      expect_identical(outcome.value(), nominal, oracle);
    }
  }

  testsupport::ServeClient shutdown(port,
                                    [](const std::string& m) { ADD_FAILURE() << m; });
  (void)shutdown.roundtrip(R"({"id":1,"type":"shutdown"})");
  server.join();
}

// ---------------------------------------------------------------------
// Periodic persist regression
// ---------------------------------------------------------------------

// Regression: Engine::persist() used to run only on graceful shutdown,
// so a SIGKILL'ed worker left nothing behind and its respawn started
// cold.  With the periodic persist thread, a killed worker's store dir
// must already hold a snapshot, and the respawned worker must report a
// warm start (persisted_artifacts > 0) through diagnostics.
TEST(DistPersist, SigkilledWorkerLeavesASnapshotItsRespawnLoads) {
  TempDir store;
  WorkerSpec spec = spawn_spec();
  spec.store_dir = store.path;
  spec.persist_interval_ms = 20;

  Expected<WorkerLink> opened = WorkerLink::open(spec);
  ASSERT_TRUE(opened) << opened.status().to_string();
  WorkerLink worker = std::move(opened.value());

  const std::string open_line =
      util::cat(R"({"id":1,"type":"open_session","session":"s","system":")",
                io::json_escape(tiny_text()), R"("})");
  ASSERT_TRUE(worker.send_line(open_line));
  Expected<std::string> ack = worker.read_line(20000);
  ASSERT_TRUE(ack) << ack.status().to_string();
  EXPECT_NE(ack.value().find(R"("status":"ok")"), std::string::npos) << ack.value();

  // Score the full permutation set so the store holds artifacts worth
  // snapshotting.
  const System system = tiny_system();
  std::string evaluate =
      R"({"id":2,"type":"evaluate","session":"s","unit":1,"k":5,"candidates":[)";
  const std::vector<std::vector<Priority>> candidates = search::exhaustive_candidates(system);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (i != 0) evaluate += ',';
    evaluate += '[';
    for (std::size_t p = 0; p < candidates[i].size(); ++p) {
      if (p != 0) evaluate += ',';
      evaluate += util::cat(candidates[i][p]);
    }
    evaluate += ']';
  }
  evaluate += "]}";
  ASSERT_TRUE(worker.send_line(evaluate));
  Expected<std::string> scored = worker.read_line(20000);
  ASSERT_TRUE(scored) << scored.status().to_string();
  EXPECT_NE(scored.value().find(R"("status":"ok")"), std::string::npos) << scored.value();

  // The *periodic* persist must write a snapshot while the worker is
  // alive and busy — no shutdown involved.
  const std::string snapshot = store_snapshot_path(store.path);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (::access(snapshot.c_str(), F_OK) != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(::access(snapshot.c_str(), F_OK), 0)
      << "no periodic snapshot appeared at " << snapshot;

  // Crash, not shutdown: SIGKILL skips every graceful persist path.
  worker.kill_now();
  worker.reap(/*grace_ms=*/5000);
  worker.close_fd();

  // The respawn against the same dir must come up warm.
  Expected<WorkerLink> reopened = WorkerLink::open(spec);
  ASSERT_TRUE(reopened) << reopened.status().to_string();
  WorkerLink respawn = std::move(reopened.value());
  ASSERT_TRUE(respawn.send_line(open_line));
  Expected<std::string> reack = respawn.read_line(20000);
  ASSERT_TRUE(reack) << reack.status().to_string();

  ASSERT_TRUE(respawn.send_line(R"({"id":3,"type":"diagnostics","session":"s"})"));
  Expected<std::string> diagnostics = respawn.read_line(20000);
  ASSERT_TRUE(diagnostics) << diagnostics.status().to_string();
  const io::JsonValue doc = io::parse_json(diagnostics.value());
  EXPECT_GT(doc.at("engine_store").at("persisted_artifacts").as_int(), 0)
      << diagnostics.value();
  EXPECT_EQ(doc.at("engine_store").at("load_skipped_corrupt").as_int(), 0)
      << diagnostics.value();

  respawn.close_fd();
  respawn.reap(/*grace_ms=*/5000);
}

}  // namespace
}  // namespace wharf::dist
