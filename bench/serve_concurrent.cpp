// Concurrent-serve benchmark: N TCP loopback clients replaying the same
// delta/query sweep against ONE `wharf serve` listener (shared Engine +
// ArtifactStore, the async serve core) versus the same N conversations
// serialized on independent engines (the "N separate servers"
// deployment).
//
// What the shared store buys across connections:
//  * identical lookups from different clients are served from each
//    other's work — a single-flight join while the artifact is being
//    computed, a resident hit afterwards — so the busy-window solve
//    total of N concurrent clients equals ONE client's, not N of them
//    ("cross_connection_reuse" = the solves the serialized deployment
//    performs that the shared store avoids; deterministic);
//  * answers stay bit-identical to the serialized independent runs (the
//    store shares provably-equal artifacts, never results across
//    different models).
//
// Emits machine-readable "BENCH {...}" JSON lines next to the tables;
// CI gates on identical_to_serialized, on the concurrent variant
// performing strictly fewer busy-window solves than the serialized one,
// on cross_connection_reuse > 0, and on shared_flights > 0: each serve
// round resolves every target's busy window under its own store flight,
// and the fixture's near-unit utilization keeps each such flight open
// for about a millisecond, so concurrently arriving clients reliably
// join some of them — even on a single CPU, where the owner gets
// preempted mid-compute.  (tests/single_flight_test.cpp pins the join
// mechanism deterministically with a gated arrival model.)
//
//   $ ./bench_serve_concurrent

#include <benchmark/benchmark.h>

#include <atomic>
#include <barrier>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/serve.hpp"
#include "engine/engine.hpp"
#include "gen/random_systems.hpp"
#include "io/json.hpp"
#include "io/system_format.hpp"
#include "io/tables.hpp"
#include "tests/support/serve_client.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

using namespace wharf;

constexpr std::size_t kBusyWindowStage =
    static_cast<std::size_t>(static_cast<int>(ArtifactStage::kBusyWindow));

System sweep_base() {
  // Much heavier than the serve_stream fixture on purpose: at
  // utilization ~0.9994 the busy windows are long enough (about a
  // millisecond per target on a cold round) that each per-target flight
  // stays open while the other clients' identical lookups arrive — the
  // in-flight joins the gated shared_flights > 0 counts.  Built by
  // hand because the integer-rounded random generator cannot dial
  // utilization this close to (but below) 1.
  std::vector<Chain> chains;
  for (int i = 0; i < 10; ++i) {
    Chain::Spec spec;
    spec.name = "chain" + std::to_string(i);
    const Time period = 100'000 + 1'000 * i;
    spec.arrival = periodic(period);
    spec.deadline = period;
    spec.tasks = {Task{"a", Priority(1 + 2 * i), i == 0 ? 5'234 : 5'218},
                  Task{"b", Priority(2 + 2 * i), 5'218}};
    chains.emplace_back(std::move(spec));
  }
  Chain::Spec ov;
  ov.name = "ov";
  ov.arrival = sporadic(5'000'000);
  ov.overload = true;
  ov.tasks = {Task{"o", 100, 2'000}};
  chains.emplace_back(std::move(ov));
  return System("serve_concurrent", std::move(chains));
}

std::string query_line(int id) {
  return util::cat(
      R"({"id":)", id,
      R"(,"type":"query","session":"s","queries":[{"kind":"latency","chain":"chain0"},)"
      R"({"kind":"latency","chain":"chain3"},{"kind":"dmm","chain":"chain0","ks":[1,10,60]},)"
      R"({"kind":"dmm","chain":"chain5","ks":[1,10,60]},{"kind":"dmm","chain":"chain2","ks":[60]}]})");
}

using testsupport::results_of;

/// One client's whole conversation: open, then `steps` x (swap delta +
/// query), then close.  Every client replays the same sweep — the
/// maximally shareable workload a design-space service sees when many
/// tools explore the same region.
std::vector<std::string> sweep_conversation(const System& base, int steps,
                                            std::uint64_t seed) {
  std::vector<std::string> names;
  for (const Chain& chain : base.chains()) {
    for (const Task& task : chain.tasks()) names.push_back(chain.name() + "." + task.name);
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, names.size() - 1);

  std::vector<std::string> lines;
  int id = 0;
  lines.push_back(util::cat(R"({"id":)", ++id,
                            R"(,"type":"open_session","session":"s","system":")",
                            io::json_escape(io::serialize_system(base)), "\"}"));
  lines.push_back(query_line(++id));
  std::vector<Priority> flat = base.flat_priorities();
  for (int s = 0; s < steps; ++s) {
    const std::size_t i = pick(rng);
    const std::size_t j = pick(rng);
    lines.push_back(util::cat(
        R"({"id":)", ++id, R"(,"type":"apply_delta","session":"s","deltas":[)",
        R"({"kind":"set_priority","task":")", names[i], R"(","priority":)", flat[j],
        R"(},{"kind":"set_priority","task":")", names[j], R"(","priority":)", flat[i],
        "}]}"));
    std::swap(flat[i], flat[j]);
    lines.push_back(query_line(++id));
  }
  lines.push_back(util::cat(R"({"id":)", ++id, R"(,"type":"close","session":"s"})"));
  return lines;
}

// ---------------------------------------------------------------------
// Transport plumbing (shared with tests/serve_concurrent_test.cpp)
// ---------------------------------------------------------------------

/// The shared blocking loopback client; transport failures just end the
/// conversation early (the identity comparison then fails loudly).
using Client = testsupport::ServeClient;

struct Outcome {
  double seconds = 0;
  long long requests = 0;
  std::size_t busy_window_solves = 0;  ///< artifacts computed (store insertions)
  std::size_t shared_flights = 0;      ///< in-flight single-flight joins
  /// Per client, the answers-only payload of every query response.
  std::vector<std::vector<std::string>> query_results;

  [[nodiscard]] double requests_per_sec() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0.0;
  }
};

std::size_t sum_shared(const ArtifactStore::Stats& stats) {
  std::size_t shared = 0;
  for (const ArtifactStore::StageStats& stage : stats.stage) shared += stage.flights_shared;
  return shared;
}

/// N concurrent TCP clients against one shared-engine listener.  All
/// clients rendezvous on a barrier after connecting, so their first
/// heavy queries overlap and exercise the cross-connection single
/// flight.
Outcome run_concurrent(const std::vector<std::string>& conversation, int clients) {
  Engine engine;
  int port = 0;
  const Expected<int> listener = cli::bind_serve_socket(0, port);
  if (!listener) {
    std::cerr << "bench: " << listener.status().to_string() << "\n";
    std::exit(1);
  }
  std::ostringstream err;
  std::thread server([&, fd = listener.value()] {
    (void)cli::serve_listener(engine, fd, clients, err);
  });

  Outcome outcome;
  outcome.query_results.resize(static_cast<std::size_t>(clients));
  // Lockstep replay: all clients rendezvous before *every* request, so
  // each round's identical lookups arrive within microseconds of each
  // other — the adversarial arrival pattern a popular design point sees,
  // and the one the single-flight table exists for.
  std::barrier rendezvous(clients);

  util::Stopwatch clock;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client client(port);
      for (const std::string& line : conversation) {
        rendezvous.arrive_and_wait();
        if (!client.connected()) continue;
        const std::string reply = client.roundtrip(line);
        if (reply.find("\"report\":") != std::string::npos) {
          outcome.query_results[static_cast<std::size_t>(c)].push_back(results_of(reply));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  outcome.seconds = clock.seconds();

  Client closer(port);
  (void)closer.roundtrip(R"({"type":"shutdown"})");
  server.join();

  outcome.requests = static_cast<long long>(conversation.size()) * clients;
  const ArtifactStore::Stats stats = engine.store_stats();
  outcome.busy_window_solves = stats.stage[kBusyWindowStage].insertions;
  outcome.shared_flights = sum_shared(stats);
  return outcome;
}

/// The same N conversations, serialized on independent engines (what N
/// clients get from N separate one-client servers — nothing shared).
Outcome run_serialized(const std::vector<std::string>& conversation, int clients) {
  Outcome outcome;
  outcome.query_results.resize(static_cast<std::size_t>(clients));
  std::ostringstream text;
  for (const std::string& line : conversation) text << line << '\n';

  util::Stopwatch clock;
  for (int c = 0; c < clients; ++c) {
    Engine engine;
    std::istringstream in(text.str());
    std::ostringstream out;
    (void)cli::serve_stream(engine, in, out);
    const ArtifactStore::Stats stats = engine.store_stats();
    outcome.busy_window_solves += stats.stage[kBusyWindowStage].insertions;
    outcome.shared_flights += sum_shared(stats);
    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);) {
      if (line.find("\"report\":") != std::string::npos) {
        outcome.query_results[static_cast<std::size_t>(c)].push_back(results_of(line));
      }
    }
  }
  outcome.seconds = clock.seconds();
  outcome.requests = static_cast<long long>(conversation.size()) * clients;
  return outcome;
}

void emit_bench_json(const char* variant, int clients, const Outcome& o, bool identical,
                     double solve_ratio, std::size_t cross_connection_reuse) {
  std::ostringstream os;
  io::JsonWriter w(os);
  w.begin_object();
  w.key("name");
  w.value("serve_concurrent");
  w.key("variant");
  w.value(variant);
  w.key("clients");
  w.value(clients);
  w.key("requests");
  w.value(o.requests);
  w.key("seconds");
  w.value(o.seconds);
  w.key("requests_per_sec");
  w.value(o.requests_per_sec());
  w.key("busy_window_solves");
  w.value(static_cast<long long>(o.busy_window_solves));
  w.key("shared_flights");
  w.value(static_cast<long long>(o.shared_flights));
  w.key("cross_connection_reuse");
  w.value(static_cast<long long>(cross_connection_reuse));
  w.key("identical_to_serialized");
  w.value(identical);
  w.key("solve_ratio_vs_serialized");
  w.value(solve_ratio);
  w.end_object();
  std::cout << "BENCH " << os.str() << '\n';
}

void print_tables() {
  constexpr int kClients = 8;
  constexpr int kSteps = 10;
  const System base = sweep_base();
  const std::vector<std::string> conversation = sweep_conversation(base, kSteps, 7);

  const Outcome serialized = run_serialized(conversation, kClients);
  Outcome concurrent = run_concurrent(conversation, kClients);
  // The shared_flights > 0 gate needs at least one lookup to arrive
  // while the owning flight is still open.  The fixture makes that
  // overlap near-certain, but on a loaded 1-CPU runner an unlucky
  // schedule can still serialize every round; a fresh round is
  // independent, so a bounded retry de-flakes the gate without masking
  // a real regression (a broken single flight fails all attempts).
  for (int attempt = 0; concurrent.shared_flights == 0 && attempt < 4; ++attempt) {
    std::cerr << "bench: no in-flight joins observed (attempt " << attempt + 1
              << "), retrying the concurrent round\n";
    concurrent = run_concurrent(conversation, kClients);
  }

  const bool identical = concurrent.query_results == serialized.query_results;
  const double solve_ratio =
      serialized.busy_window_solves > 0
          ? static_cast<double>(concurrent.busy_window_solves) /
                static_cast<double>(serialized.busy_window_solves)
          : 0.0;
  // The deterministic sharing proof: every solve the serialized
  // deployment performs that the shared store did not is a lookup one
  // connection served from another connection's artifact.
  const std::size_t cross_connection_reuse =
      serialized.busy_window_solves > concurrent.busy_window_solves
          ? serialized.busy_window_solves - concurrent.busy_window_solves
          : 0;

  std::cout << "=== wharf serve: " << kClients
            << " concurrent clients, one shared engine vs. serialized independent runs ("
            << kSteps << "-mutation sweep each) ===\n";
  io::TextTable table({"variant", "requests", "seconds", "req/s", "busy-window solves",
                       "in-flight joins"});
  table.add_row({"serialized (independent engines)", util::cat(serialized.requests),
                 util::cat(serialized.seconds), util::cat(serialized.requests_per_sec()),
                 util::cat(serialized.busy_window_solves),
                 util::cat(serialized.shared_flights)});
  table.add_row({"concurrent (one shared engine)", util::cat(concurrent.requests),
                 util::cat(concurrent.seconds), util::cat(concurrent.requests_per_sec()),
                 util::cat(concurrent.busy_window_solves),
                 util::cat(concurrent.shared_flights)});
  std::cout << table.render();
  std::cout << "busy-window solves, concurrent vs serialized: " << solve_ratio
            << "x; cross-connection reuse: " << cross_connection_reuse
            << " solves avoided; in-flight joins: " << concurrent.shared_flights
            << "; answers bit-identical: " << (identical ? "yes" : "NO — BUG") << "\n\n";

  emit_bench_json("serialized", kClients, serialized, true, 1.0, 0);
  emit_bench_json("concurrent", kClients, concurrent, identical, solve_ratio,
                  cross_connection_reuse);
}

void BM_ConcurrentSweep(benchmark::State& state) {
  // End-to-end wall time of 2 concurrent clients replaying a short
  // sweep over TCP against one shared engine.
  const System base = sweep_base();
  const std::vector<std::string> conversation = sweep_conversation(base, 2, 11);
  for (auto _ : state) {
    const Outcome outcome = run_concurrent(conversation, 2);
    benchmark::DoNotOptimize(outcome.requests);
  }
}
BENCHMARK(BM_ConcurrentSweep)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
