// Torture tests for the async serve core (net/server.hpp) behind the
// TCP listener: slow clients that dribble requests byte-by-byte,
// oversized protocol lines, streaming queries under backpressure,
// per-request deadlines expiring while queued, abortive disconnects
// with output still queued, fd exhaustion on accept, and the flat
// thread-count property the reactor exists for.  Throughout, answers
// must stay bit-identical to serialized execution on a fresh engine.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/serve.hpp"
#include "core/arrival.hpp"
#include "core/case_studies.hpp"
#include "core/system.hpp"
#include "engine/engine.hpp"
#include "io/json.hpp"
#include "io/system_format.hpp"
#include "net/server.hpp"
#include "tests/support/serve_client.hpp"
#include "util/strings.hpp"

namespace wharf::net {
namespace {

using testsupport::results_of;

std::string case_study_text() {
  return io::serialize_system(
      case_studies::date17_case_study(case_studies::OverloadModel::kRareOverload));
}

/// The shared ServeClient with failures routed into gtest.
class Client : public testsupport::ServeClient {
 public:
  explicit Client(int port)
      : ServeClient(port, [](const std::string& message) { ADD_FAILURE() << message; }) {}
};

/// An AsyncServer constructed directly (custom AsyncServeOptions) on an
/// ephemeral loopback listener, with serve() running on a background
/// thread.  Join via a client-requested shutdown, then join().
class AsyncHarness {
 public:
  AsyncHarness(Engine& engine, AsyncServeOptions options) {
    const Expected<int> listener = cli::bind_serve_socket(0, port_);
    EXPECT_TRUE(listener) << listener.status().to_string();
    server_ = std::make_unique<AsyncServer>(engine, listener.value(), options, err_);
    thread_ = std::thread([this] { ok_ = server_->serve(); });
  }

  ~AsyncHarness() {
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] ServeTelemetry& telemetry() { return server_->telemetry(); }

  /// Joins serve() (after a shutdown request drained every connection)
  /// and returns its graceful/fatal verdict.
  bool join() {
    thread_.join();
    return ok_;
  }

  /// The accept diagnostics stream; read only after join() (the loop
  /// thread writes it while serving).
  [[nodiscard]] std::string err() const { return err_.str(); }

 private:
  int port_ = 0;
  bool ok_ = false;
  std::ostringstream err_;
  std::unique_ptr<AsyncServer> server_;
  std::thread thread_;
};

std::string open_line(int id, const std::string& session) {
  return util::cat("{\"id\":", id, ",\"type\":\"open_session\",\"session\":\"", session,
                   "\",\"system\":\"", io::json_escape(case_study_text()), "\"}");
}

std::string query_line(int id, const std::string& session) {
  return util::cat("{\"id\":", id, ",\"type\":\"query\",\"session\":\"", session,
                   "\",\"queries\":[{\"kind\":\"latency\",\"chain\":\"sigma_c\"},"
                   "{\"kind\":\"dmm\",\"chain\":\"sigma_c\",\"ks\":[5,10]},"
                   "{\"kind\":\"latency\",\"chain\":\"sigma_d\"}]}");
}

std::string swap_line(int id, const std::string& session) {
  return util::cat("{\"id\":", id, ",\"type\":\"apply_delta\",\"session\":\"", session,
                   "\",\"deltas\":[{\"kind\":\"set_priority\",\"task\":\"sigma_c.tau1_c\","
                   "\"priority\":7},{\"kind\":\"set_priority\",\"task\":\"sigma_c.tau2_c\","
                   "\"priority\":8}]}");
}

/// Replays one conversation through serve_stream on a fresh engine (the
/// serialized reference) and returns every query response's answers.
std::vector<std::string> serialized_reference(const std::vector<std::string>& lines) {
  std::ostringstream conversation;
  for (const std::string& line : lines) conversation << line << '\n';
  Engine engine;
  std::istringstream in(conversation.str());
  std::ostringstream out;
  (void)cli::serve_stream(engine, in, out);
  std::vector<std::string> results;
  std::istringstream replies(out.str());
  for (std::string line; std::getline(replies, line);) {
    if (line.find("\"report\":") != std::string::npos) results.push_back(results_of(line));
  }
  return results;
}

/// The kernel thread count of this process (/proc/self/status).
int thread_count() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

/// A near-unit-utilization system whose cold busy-window solves take
/// milliseconds (the deadline tests need a request that reliably
/// outlives a 1ms deadline armed behind it).
System heavy_system() {
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
  return System("serve_async_heavy", std::move(chains));
}

// ---------------------------------------------------------------------
// Dribbled requests: byte-by-byte framing, answers bit-identical
// ---------------------------------------------------------------------

TEST(ServeAsync, DribbledRequestsAnswerBitIdentical) {
  const std::vector<std::string> conversation = {
      open_line(1, "d"), query_line(2, "d"), swap_line(3, "d"), query_line(4, "d"),
      "{\"id\":5,\"type\":\"close\",\"session\":\"d\"}"};
  const std::vector<std::string> want = serialized_reference(conversation);
  ASSERT_EQ(want.size(), 2u);

  Engine engine;
  AsyncHarness server(engine, {});
  Client dribbler(server.port());
  std::vector<std::string> got;
  for (const std::string& line : conversation) {
    // One byte per send: the line assembler sees the request in as many
    // fragments as the kernel cares to deliver, never a whole line.
    const std::string framed = line + "\n";
    for (std::size_t i = 0; i < framed.size(); ++i) {
      dribbler.send_raw(framed.substr(i, 1));
      if (i % 257 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::string reply = dribbler.recv_line();
    if (reply.find("\"report\":") != std::string::npos) got.push_back(results_of(reply));
  }
  EXPECT_EQ(got, want);

  dribbler.send_line(R"({"type":"shutdown"})");
  (void)dribbler.recv_line();
  dribbler.close();
  EXPECT_TRUE(server.join()) << server.err();
}

// ---------------------------------------------------------------------
// Oversized lines: rejected with the protocol envelope, stream in sync
// ---------------------------------------------------------------------

TEST(ServeAsync, OversizedLineIsRejectedAndStreamStaysInSync) {
  Engine engine;
  AsyncServeOptions options;
  options.max_line_bytes = 256;
  AsyncHarness server(engine, options);

  Client client(server.port());
  // Oversized line delivered whole...
  client.send_line(std::string(1000, 'x'));
  EXPECT_NE(client.recv_line().find("exceeds the 256-byte protocol bound"),
            std::string::npos);
  // ...and oversized again, split across many reads (the discard state
  // must span chunks without leaking bytes into the next line).
  const std::string big(900, 'y');
  for (std::size_t i = 0; i < big.size(); i += 100) client.send_raw(big.substr(i, 100));
  client.send_raw("\n");
  EXPECT_NE(client.recv_line().find("exceeds the 256-byte protocol bound"),
            std::string::npos);
  // The very next in-bound request is answered normally: still in sync.
  client.send_line(R"({"id":3,"type":"diagnostics","session":"nope"})");
  const std::string reply = client.recv_line();
  EXPECT_NE(reply.find(R"("id":3)"), std::string::npos);
  EXPECT_NE(reply.find(R"("status":"not-found")"), std::string::npos);
  EXPECT_EQ(server.telemetry().oversized_lines.load(), 2);

  client.send_line(R"({"type":"shutdown"})");
  (void)client.recv_line();
  client.close();
  EXPECT_TRUE(server.join()) << server.err();
}

TEST(ServeAsync, DeeplyNestedLineIsRejectedAndConnectionKeepsServing) {
  // 20,000 nested brackets used to overflow the recursive JSON parser's
  // stack and kill the whole server; now the line gets the protocol
  // error envelope and the next line on the same connection an answer.
  Engine engine;
  AsyncHarness server(engine, {});
  Client client(server.port());
  Client bystander(server.port());
  client.send_line(std::string(20'000, '['));
  const std::string rejected = client.recv_line();
  EXPECT_NE(rejected.find(R"("type":"error")"), std::string::npos) << rejected;
  EXPECT_NE(rejected.find("nesting deeper than"), std::string::npos) << rejected;
  client.send_line(R"({"id":2,"type":"diagnostics","session":"nope"})");
  const std::string reply = client.recv_line();
  EXPECT_NE(reply.find(R"("id":2)"), std::string::npos) << reply;
  EXPECT_NE(reply.find(R"("status":"not-found")"), std::string::npos) << reply;
  bystander.send_line(R"({"id":3,"type":"diagnostics","session":"nope"})");
  EXPECT_NE(bystander.recv_line().find(R"("id":3)"), std::string::npos);

  bystander.close();
  client.send_line(R"({"type":"shutdown"})");
  (void)client.recv_line();
  client.close();
  EXPECT_TRUE(server.join()) << server.err();
}

// ---------------------------------------------------------------------
// Streaming: frames bit-identical to the monolithic report, in order
// ---------------------------------------------------------------------

/// The "result" object of one streamed result frame (everything behind
/// the "result": key, up to the envelope's closing brace).
std::string frame_result_of(const std::string& frame_line) {
  const auto begin = frame_line.find("\"result\":");
  if (begin == std::string::npos || frame_line.empty()) return frame_line;
  return frame_line.substr(begin + 9, frame_line.size() - (begin + 9) - 1);
}

TEST(ServeAsync, StreamedFramesAreBitIdenticalToMonolithicReport) {
  Engine engine;
  AsyncHarness server(engine, {});
  Client client(server.port());
  client.send_line(open_line(1, "s"));
  ASSERT_NE(client.recv_line().find(R"("status":"ok")"), std::string::npos);

  client.send_line(query_line(2, "s"));
  const std::string monolithic = client.recv_line();
  ASSERT_NE(monolithic.find("\"report\":"), std::string::npos);

  // The same three queries, streamed: three result frames, one summary.
  std::string streamed = query_line(3, "s");
  streamed.replace(streamed.find("\"queries\""), 9, "\"stream\":true,\"queries\"");
  client.send_line(streamed);
  std::vector<std::string> frame_results;
  for (int i = 0; i < 3; ++i) {
    const std::string frame = client.recv_line();
    EXPECT_NE(frame.find(util::cat(R"("frame":"result","index":)", i)), std::string::npos);
    frame_results.push_back(frame_result_of(frame));
  }
  const std::string summary = client.recv_line();
  EXPECT_NE(summary.find(R"("frame":"summary")"), std::string::npos);
  EXPECT_NE(summary.find(R"("results":3)"), std::string::npos);

  // Reassembling the frames yields the monolithic results array, byte
  // for byte — a streaming client loses nothing but the envelope.
  const std::string reassembled =
      util::cat("\"results\":[", frame_results[0], ",", frame_results[1], ",",
                frame_results[2], "]");
  EXPECT_EQ(reassembled, results_of(monolithic));
  EXPECT_EQ(server.telemetry().stream_frames.load(), 3);

  client.send_line(R"({"type":"shutdown"})");
  (void)client.recv_line();
  client.close();
  EXPECT_TRUE(server.join()) << server.err();
}

TEST(ServeAsync, StreamParksUnderTinyWriteBudgetAndStillDeliversInOrder) {
  // A 64-byte write budget is smaller than any single frame, so the
  // stream parks at every inter-query boundary and resumes when the
  // loop drains — the park/resume machinery runs several times per
  // request.  A trailing request queued behind the stream must still be
  // answered after the summary (FIFO across parks).
  Engine engine;
  AsyncServeOptions options;
  options.write_buffer_limit = 64;
  AsyncHarness server(engine, options);

  Client client(server.port());
  client.send_line(open_line(1, "p"));
  ASSERT_NE(client.recv_line().find(R"("status":"ok")"), std::string::npos);

  std::string streamed = query_line(2, "p");
  streamed.replace(streamed.find("\"queries\""), 9, "\"stream\":true,\"queries\"");
  client.send_line(streamed);
  client.send_line(R"({"id":3,"type":"diagnostics","session":"p"})");

  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(client.recv_line().find(R"("frame":"result")"), std::string::npos) << i;
  }
  EXPECT_NE(client.recv_line().find(R"("frame":"summary")"), std::string::npos);
  const std::string diagnostics = client.recv_line();
  EXPECT_NE(diagnostics.find(R"("id":3)"), std::string::npos);
  EXPECT_NE(diagnostics.find(R"("stream_frames":3)"), std::string::npos);

  client.send_line(R"({"type":"shutdown"})");
  (void)client.recv_line();
  client.close();
  EXPECT_TRUE(server.join()) << server.err();
}

TEST(ServeAsync, DisconnectWithQueuedStreamOutputNeverHurtsSiblings) {
  Engine engine;
  AsyncServeOptions options;
  options.write_buffer_limit = 64;  // force parking mid-stream
  AsyncHarness server(engine, options);

  Client steady(server.port());
  steady.send_line(open_line(1, "steady"));
  ASSERT_NE(steady.recv_line().find(R"("status":"ok")"), std::string::npos);

  {
    // Opens, fires a streaming query, and slams the connection (RST)
    // without reading a single frame: the stream aborts against the
    // closed socket and its budget slot is released.
    Client vanisher(server.port());
    vanisher.send_line(open_line(1, "v"));
    std::string streamed = query_line(2, "v");
    streamed.replace(streamed.find("\"queries\""), 9, "\"stream\":true,\"queries\"");
    vanisher.send_line(streamed);
    vanisher.abort_close();
  }

  for (int round = 0; round < 3; ++round) {
    steady.send_line(query_line(10 + round, "steady"));
    EXPECT_NE(steady.recv_line().find(R"("wcl":331)"), std::string::npos) << round;
  }
  steady.send_line(R"({"type":"shutdown"})");
  (void)steady.recv_line();
  steady.close();
  EXPECT_TRUE(server.join()) << server.err();
}

// ---------------------------------------------------------------------
// Deadlines: expiry while queued answers the envelope, skips the work
// ---------------------------------------------------------------------

TEST(ServeAsync, DeadlineExpiresWhileQueuedBehindHeavyRequests) {
  Engine engine;
  AsyncServeOptions options;
  options.pool_threads = 1;   // one worker: everything behind it queues
  options.max_inflight = 32;  // the whole burst parses up front
  AsyncHarness server(engine, options);

  Client client(server.port());
  client.send_line(util::cat("{\"id\":1,\"type\":\"open_session\",\"session\":\"h\","
                             "\"system\":\"",
                             io::json_escape(io::serialize_system(heavy_system())), "\"}"));
  ASSERT_NE(client.recv_line().find(R"("status":"ok")"), std::string::npos);

  // One burst: ten delta+query rounds, each against a *distinct* model
  // (so every round is a cold solve, no store hits), then a 1ms
  // deadline.  The timer arms when the burst parses; the lone worker
  // needs many milliseconds to reach the deadlined request.
  constexpr int kRounds = 10;
  std::ostringstream burst;
  int id = 1;
  for (int r = 0; r < kRounds; ++r) {
    burst << "{\"id\":" << ++id
          << R"(,"type":"apply_delta","session":"h","deltas":[{"kind":"set_priority",)"
          << R"("task":"chain0.a","priority":)" << 50 + r << "}]}\n";
    burst << "{\"id\":" << ++id
          << R"(,"type":"query","session":"h","queries":[{"kind":"dmm","chain":"chain0",)"
          << R"("ks":[1,10,60]}]})"
          << "\n";
  }
  burst << R"({"id":99,"type":"query","session":"h","deadline_ms":1,)"
        << R"("queries":[{"kind":"latency","chain":"chain1"}]})"
        << "\n";
  client.send_raw(burst.str());

  for (int i = 0; i < 2 * kRounds; ++i) {
    EXPECT_NE(client.recv_line(60000).find(R"("status":"ok")"), std::string::npos) << i;
  }
  const std::string expired = client.recv_line();
  EXPECT_NE(expired.find(R"("id":99)"), std::string::npos);
  EXPECT_NE(expired.find(R"("status":"deadline-exceeded")"), std::string::npos);
  EXPECT_EQ(server.telemetry().deadline_expired.load(), 1);

  // A generous deadline on an idle server never expires: the request
  // runs normally and the timer is simply never heard from again.
  client.send_line(
      R"({"id":4,"type":"query","session":"h","deadline_ms":60000,)"
      R"("queries":[{"kind":"latency","chain":"chain1"}]})");
  const std::string unexpired = client.recv_line();
  EXPECT_NE(unexpired.find(R"("id":4)"), std::string::npos);
  EXPECT_NE(unexpired.find("\"report\":"), std::string::npos);
  EXPECT_EQ(server.telemetry().deadline_expired.load(), 1);

  client.send_line(R"({"type":"shutdown"})");
  (void)client.recv_line();
  client.close();
  EXPECT_TRUE(server.join()) << server.err();
}

// ---------------------------------------------------------------------
// Flat threads: many slow connections, fixed reactor + pool
// ---------------------------------------------------------------------

TEST(ServeAsync, ThreadCountStaysFlatAcrossManySlowClients) {
  Engine engine;
  AsyncServeOptions options;
  options.max_inflight = 4;
  AsyncHarness server(engine, options);

  // Warm up: first conversation spins up nothing extra (the pool is
  // created with the server), so this reading is the steady state.
  Client active(server.port());
  active.send_line(open_line(1, "a"));
  ASSERT_NE(active.recv_line().find(R"("status":"ok")"), std::string::npos);
  const int baseline = thread_count();
  ASSERT_GT(baseline, 0);

  // 40 connections park themselves mid-request-line — the classic slow
  // client — while the active one keeps being served.
  std::vector<std::unique_ptr<Client>> slow;
  for (int i = 0; i < 40; ++i) {
    slow.push_back(std::make_unique<Client>(server.port()));
    slow.back()->send_raw(R"({"id":1,"type":"query","session")");
  }
  for (int round = 0; round < 3; ++round) {
    active.send_line(query_line(2 + round, "a"));
    EXPECT_NE(active.recv_line().find(R"("wcl":331)"), std::string::npos) << round;
  }
  // The whole point of the reactor: 41 live connections, zero new
  // threads (a thread per connection would be 40 threads deeper here).
  EXPECT_EQ(thread_count(), baseline);

  for (std::unique_ptr<Client>& client : slow) client->close();
  slow.clear();
  active.send_line(R"({"type":"shutdown"})");
  (void)active.recv_line();
  active.close();
  EXPECT_TRUE(server.join()) << server.err();
}

// ---------------------------------------------------------------------
// fd exhaustion: accept pauses and recovers, never spins or exits
// ---------------------------------------------------------------------

TEST(ServeAsync, FdExhaustionHelpersClassifyAndExplain) {
  EXPECT_TRUE(is_fd_exhaustion(EMFILE));
  EXPECT_TRUE(is_fd_exhaustion(ENFILE));
  EXPECT_FALSE(is_fd_exhaustion(EAGAIN));
  EXPECT_FALSE(is_fd_exhaustion(ECONNABORTED));
  const std::string message = accept_pause_message(EMFILE);
  EXPECT_NE(message.find(util::errno_message(EMFILE)), std::string::npos);
  EXPECT_NE(message.find("pausing accepts"), std::string::npos);
}

TEST(ServeAsync, AcceptPausesOnEmfileAndRecovers) {
  Engine engine;
  AsyncServeOptions options;
  options.accept_retry = std::chrono::milliseconds(10);
  AsyncHarness server(engine, options);

  Client first(server.port());
  first.send_line("not json");
  ASSERT_NE(first.recv_line().find(R"("type":"error")"), std::string::npos);

  // The victim's socket exists *before* the squeeze; its connect() then
  // completes in the kernel's accept backlog while the server cannot
  // accept a single descriptor.
  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  const timeval receive_timeout{10, 0};  // a hung server fails, not hangs
  ::setsockopt(raw, SOL_SOCKET, SO_RCVTIMEO, &receive_timeout, sizeof receive_timeout);

  rlimit old{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old), 0);
  const int probe = ::dup(0);
  ASSERT_GE(probe, 0);
  ::close(probe);
  rlimit squeezed = old;
  // The lowest free descriptor is now `probe`; capping there makes
  // every allocation — accept4 included — fail with EMFILE.
  squeezed.rlim_cur = static_cast<rlim_t>(probe);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &squeezed), 0);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::connect(raw, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);

  // Wait until the server has logged at least one pause (atomic counter;
  // the err stream itself is read only after join).
  for (int i = 0; i < 200 && server.telemetry().accept_pauses.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server.telemetry().accept_pauses.load(), 1);

  // Descriptors return; within one retry period the backlog drains and
  // the queued client is served as if nothing happened.
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old), 0);
  const std::string request = "also not json\n";
  ASSERT_EQ(::send(raw, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string reply;
  char c = 0;
  while (reply.find('\n') == std::string::npos && ::read(raw, &c, 1) == 1) reply.push_back(c);
  EXPECT_NE(reply.find(R"("type":"error")"), std::string::npos);
  ::close(raw);

  first.send_line(R"({"type":"shutdown"})");
  (void)first.recv_line();
  first.close();
  EXPECT_TRUE(server.join());
  EXPECT_NE(server.err().find(accept_pause_message(EMFILE)), std::string::npos)
      << server.err();
}

// ---------------------------------------------------------------------
// Budget: the in-flight bound pauses reads, never drops requests
// ---------------------------------------------------------------------

TEST(ServeAsync, InflightBudgetQueuesExcessRequestsWithoutLoss) {
  Engine engine;
  AsyncServeOptions options;
  options.max_inflight = 1;  // every concurrent second request must wait
  AsyncHarness server(engine, options);

  // A two-request burst in one write overshoots the budget by the
  // documented one-read-chunk bound, pausing this connection's reads —
  // and resuming them once the answers drain.  (A perfectly unlucky
  // scheduler can let the worker drain the burst before the loop's
  // budget check runs; a fresh burst retries the race, and every
  // attempt must answer correctly regardless.)
  for (int attempt = 0;
       attempt < 20 && server.telemetry().backpressure_stalls.load() == 0; ++attempt) {
    Client burster(server.port());
    const std::string session = "burst" + std::to_string(attempt);
    burster.send_raw(open_line(1, session) + "\n" + query_line(2, session) + "\n");
    EXPECT_NE(burster.recv_line().find(R"("status":"ok")"), std::string::npos);
    EXPECT_NE(burster.recv_line().find(R"("wcl":331)"), std::string::npos);
    // Reads resumed: a third request on the same connection is served.
    burster.send_line(query_line(3, session));
    EXPECT_NE(burster.recv_line().find(R"("wcl":331)"), std::string::npos);
  }
  EXPECT_GE(server.telemetry().backpressure_stalls.load(), 1);

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.port());
      const std::string session = "b" + std::to_string(c);
      client.send_line(open_line(1, session));
      EXPECT_NE(client.recv_line().find(R"("status":"ok")"), std::string::npos);
      client.send_line(query_line(2, session));
      EXPECT_NE(client.recv_line().find(R"("wcl":331)"), std::string::npos);
    });
  }
  for (std::thread& t : clients) t.join();

  Client closer(server.port());
  closer.send_line(R"({"type":"shutdown"})");
  (void)closer.recv_line();
  closer.close();
  EXPECT_TRUE(server.join()) << server.err();
}

// Regression: the shutdown-requesting connection is over once its ack
// drains — the server closes it and exits while the closer still holds
// its socket open (bench_serve_concurrent joins the server thread
// exactly this way; requiring the client to hang up first deadlocks
// that join).  Anything pipelined behind the shutdown line is dropped,
// as in the stdio loop.
TEST(AsyncServe, ShutdownDrainsWhileTheRequesterStaysConnected) {
  Engine engine;
  AsyncHarness server(engine, {});
  // Bare ServeClient: the server-side close is expected, not a failure.
  testsupport::ServeClient closer(server.port());
  closer.send_raw(
      "{\"id\":1,\"type\":\"shutdown\"}\n{\"id\":2,\"type\":\"diagnostics\",\"session\":\"x\"}\n");
  const std::string ack = closer.recv_line();
  EXPECT_NE(ack.find(R"("status":"ok")"), std::string::npos) << ack;
  // Next read sees EOF (empty line): the pipelined diagnostics request
  // was dropped and the server closed the connection from its side.
  EXPECT_EQ(closer.recv_line(), "");
  // serve() returns while the closer's fd is still open.
  EXPECT_TRUE(server.join()) << server.err();
}

}  // namespace
}  // namespace wharf::net
