// Tests for the concurrent `wharf serve` TCP mode (cli/serve.hpp): two+
// loopback clients served in parallel against one shared Engine — with
// proof of overlap (a whole conversation completes while another
// connection is open), answers bit-identical to serialized execution,
// per-connection error isolation (a client disconnecting mid-request
// never affects its siblings or the process), a bounded connection pool
// that queues rather than drops, and cross-connection artifact sharing.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/serve.hpp"
#include "core/case_studies.hpp"
#include "engine/engine.hpp"
#include "io/json.hpp"
#include "io/system_format.hpp"
#include "tests/support/serve_client.hpp"

namespace wharf::cli {
namespace {

constexpr std::size_t kBusyWindowStage =
    static_cast<std::size_t>(static_cast<int>(ArtifactStage::kBusyWindow));

std::string case_study_text() {
  return io::serialize_system(
      case_studies::date17_case_study(case_studies::OverloadModel::kRareOverload));
}

using testsupport::results_of;

// ---------------------------------------------------------------------
// Loopback plumbing (shared with bench/serve_concurrent.cpp)
// ---------------------------------------------------------------------

/// The shared ServeClient with failures routed into gtest.
class Client : public testsupport::ServeClient {
 public:
  explicit Client(int port)
      : ServeClient(port, [](const std::string& message) { ADD_FAILURE() << message; }) {}
};

/// A serve_listener running on a background thread.
class Server {
 public:
  explicit Server(Engine& engine, int max_connections) {
    const Expected<int> listener = bind_serve_socket(0, port_);
    EXPECT_TRUE(listener) << listener.status().to_string();
    thread_ = std::thread([this, &engine, fd = listener.value(), max_connections] {
      exit_code_ = serve_listener(engine, fd, max_connections, err_);
    });
  }

  ~Server() {
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] int port() const { return port_; }

  /// Joins the listener (after a client-requested shutdown has drained).
  int join() {
    thread_.join();
    return exit_code_;
  }

  [[nodiscard]] std::string err() const { return err_.str(); }

 private:
  int port_ = 0;
  int exit_code_ = -1;
  std::ostringstream err_;
  std::thread thread_;
};

std::string open_line(int id, const std::string& session) {
  return "{\"id\":" + std::to_string(id) + ",\"type\":\"open_session\",\"session\":\"" +
         session + "\",\"system\":\"" + io::json_escape(case_study_text()) + "\"}";
}

std::string query_line(int id, const std::string& session) {
  return "{\"id\":" + std::to_string(id) + ",\"type\":\"query\",\"session\":\"" + session +
         "\",\"queries\":[{\"kind\":\"latency\",\"chain\":\"sigma_c\"},"
         "{\"kind\":\"dmm\",\"chain\":\"sigma_c\",\"ks\":[5,10]},"
         "{\"kind\":\"latency\",\"chain\":\"sigma_d\"}]}";
}

std::string swap_line(int id, const std::string& session) {
  return "{\"id\":" + std::to_string(id) + ",\"type\":\"apply_delta\",\"session\":\"" +
         session +
         "\",\"deltas\":[{\"kind\":\"set_priority\",\"task\":\"sigma_c.tau1_c\","
         "\"priority\":7},{\"kind\":\"set_priority\",\"task\":\"sigma_c.tau2_c\","
         "\"priority\":8}]}";
}

// ---------------------------------------------------------------------
// Overlap: a second client is served while the first stays connected
// ---------------------------------------------------------------------

TEST(ServeConcurrent, SecondClientIsServedWhileFirstConnectionIsOpen) {
  Engine engine;
  Server server(engine, 4);

  // Client A opens a session and stays connected...
  Client a(server.port());
  a.send_line(open_line(1, "a"));
  ASSERT_NE(a.recv_line().find(R"("status":"ok")"), std::string::npos);

  // ...while client B runs a *complete* conversation — open, query,
  // close — and receives every response.  A sequentially accepting
  // server would never answer B here: this is the overlap proof.
  {
    Client b(server.port());
    b.send_line(open_line(1, "b"));
    ASSERT_NE(b.recv_line().find(R"("status":"ok")"), std::string::npos);
    b.send_line(query_line(2, "b"));
    const std::string report = b.recv_line();
    EXPECT_NE(report.find(R"("report":{"system":"date17_case_study")"), std::string::npos);
    b.send_line("{\"id\":3,\"type\":\"close\",\"session\":\"b\"}");
    EXPECT_NE(b.recv_line().find(R"("status":"ok")"), std::string::npos);
  }

  // A's conversation continues unharmed, then asks for shutdown.
  a.send_line(query_line(2, "a"));
  EXPECT_NE(a.recv_line().find(R"("wcl":331)"), std::string::npos);
  a.send_line(R"({"id":3,"type":"shutdown"})");
  EXPECT_NE(a.recv_line().find(R"("type":"shutdown","status":"ok")"), std::string::npos);
  a.close();
  EXPECT_EQ(server.join(), 0) << server.err();
}

// ---------------------------------------------------------------------
// Bit-identity: concurrent answers == serialized answers
// ---------------------------------------------------------------------

/// Replays one conversation through serve_stream on its own fresh
/// engine (the serialized, nothing-shared reference) and returns the
/// results payload of every query response.
std::vector<std::string> serialized_reference(const std::vector<std::string>& lines) {
  std::ostringstream conversation;
  for (const std::string& line : lines) conversation << line << '\n';
  Engine engine;
  std::istringstream in(conversation.str());
  std::ostringstream out;
  (void)serve_stream(engine, in, out);
  std::vector<std::string> results;
  std::istringstream replies(out.str());
  for (std::string line; std::getline(replies, line);) {
    if (line.find("\"report\":") != std::string::npos) results.push_back(results_of(line));
  }
  return results;
}

TEST(ServeConcurrent, AnswersAreBitIdenticalToSerializedExecution) {
  // Two different conversations: B diverges from A after one delta, so
  // the clients share some artifacts (the pre-delta model) and not
  // others — sharing must never leak one client's answers to the other.
  const std::vector<std::string> conversation_a = {open_line(1, "a"), query_line(2, "a"),
                                                   swap_line(3, "a"), query_line(4, "a")};
  const std::vector<std::string> conversation_b = {open_line(1, "b"), query_line(2, "b"),
                                                   query_line(3, "b")};

  const std::vector<std::string> want_a = serialized_reference(conversation_a);
  const std::vector<std::string> want_b = serialized_reference(conversation_b);
  ASSERT_EQ(want_a.size(), 2u);
  ASSERT_EQ(want_b.size(), 2u);

  Engine engine;
  Server server(engine, 4);
  std::vector<std::string> got_a;
  std::vector<std::string> got_b;
  std::thread client_a([&] {
    Client a(server.port());
    for (const std::string& line : conversation_a) {
      a.send_line(line);
      const std::string reply = a.recv_line();
      if (reply.find("\"report\":") != std::string::npos) got_a.push_back(results_of(reply));
    }
  });
  std::thread client_b([&] {
    Client b(server.port());
    for (const std::string& line : conversation_b) {
      b.send_line(line);
      const std::string reply = b.recv_line();
      if (reply.find("\"report\":") != std::string::npos) got_b.push_back(results_of(reply));
    }
  });
  client_a.join();
  client_b.join();

  EXPECT_EQ(got_a, want_a);
  EXPECT_EQ(got_b, want_b);

  Client closer(server.port());
  closer.send_line(R"({"type":"shutdown"})");
  (void)closer.recv_line();
  closer.close();
  EXPECT_EQ(server.join(), 0) << server.err();
}

// ---------------------------------------------------------------------
// Cross-connection sharing: identical work is not recomputed per client
// ---------------------------------------------------------------------

TEST(ServeConcurrent, IdenticalConversationsShareStoreArtifacts) {
  // The store keys artifacts by model content, and resolve() is
  // single-flight per key — so N clients opening the *same* system and
  // asking the same queries insert each busy-window artifact exactly
  // once, no matter how the clients' requests interleave.
  Engine single;
  {
    std::istringstream in(open_line(1, "s") + "\n" + query_line(2, "s") + "\n");
    std::ostringstream out;
    (void)serve_stream(single, in, out);
  }
  const std::size_t single_solves =
      single.store_stats().stage[kBusyWindowStage].insertions;
  ASSERT_GT(single_solves, 0u);

  constexpr int kClients = 4;
  Engine engine;
  Server server(engine, kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.port());
      const std::string session = "s" + std::to_string(c);
      client.send_line(open_line(1, session));
      (void)client.recv_line();
      client.send_line(query_line(2, session));
      const std::string reply = client.recv_line();
      EXPECT_NE(reply.find(R"("wcl":331)"), std::string::npos);
    });
  }
  for (std::thread& t : clients) t.join();

  // Exactly the single-client solve count: every other lookup was a
  // resident hit or a single-flight join, never a recompute.
  EXPECT_EQ(engine.store_stats().stage[kBusyWindowStage].insertions, single_solves);

  Client closer(server.port());
  closer.send_line(R"({"type":"shutdown"})");
  (void)closer.recv_line();
  closer.close();
  EXPECT_EQ(server.join(), 0) << server.err();
}

// ---------------------------------------------------------------------
// Torture: disconnects mid-request never affect siblings or the process
// ---------------------------------------------------------------------

TEST(ServeConcurrent, ClientDisconnectMidRequestDoesNotAffectOthers) {
  Engine engine;
  Server server(engine, 4);

  Client steady(server.port());
  steady.send_line(open_line(1, "steady"));
  ASSERT_NE(steady.recv_line().find(R"("status":"ok")"), std::string::npos);

  {
    // Torture client 1: sends a full query, then slams the connection
    // abortively (RST) without ever reading — the server's response
    // write hits a dead socket (historically a process-killing SIGPIPE).
    Client vanisher(server.port());
    vanisher.send_line(open_line(1, "v"));
    vanisher.send_line(query_line(2, "v"));
    vanisher.abort_close();
  }
  {
    // Torture client 2: half a request line (no newline), then gone.
    Client half(server.port());
    half.send_raw(R"({"id":1,"type":"query","session")");
    half.close();
  }

  // The steady client keeps conversing across both disconnects.
  for (int round = 0; round < 3; ++round) {
    steady.send_line(query_line(10 + round, "steady"));
    const std::string reply = steady.recv_line();
    EXPECT_NE(reply.find(R"("wcl":331)"), std::string::npos) << "round " << round;
  }
  steady.send_line(R"({"type":"shutdown"})");
  EXPECT_NE(steady.recv_line().find(R"("status":"ok")"), std::string::npos);
  steady.close();
  EXPECT_EQ(server.join(), 0) << server.err();
}

TEST(ServeConcurrent, ShutdownHonoredEvenWhenAckIsUnwritable) {
  // A client that requests shutdown and aborts (RST) without reading
  // the acknowledgment: the request was accepted the moment it parsed,
  // so the server must still stop and exit 0 — not serve forever.
  Engine engine;
  Server server(engine, 4);
  {
    Client impatient(server.port());
    impatient.send_line(R"({"type":"shutdown"})");
    impatient.abort_close();
  }
  EXPECT_EQ(server.join(), 0) << server.err();
}

// ---------------------------------------------------------------------
// Bounded pool: more clients than slots queue, none are dropped
// ---------------------------------------------------------------------

TEST(ServeConcurrent, MoreClientsThanMaxConnectionsAllComplete) {
  Engine engine;
  Server server(engine, /*max_connections=*/2);

  constexpr int kClients = 5;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.port());
      const std::string session = "q" + std::to_string(c);
      client.send_line(open_line(1, session));
      EXPECT_NE(client.recv_line().find(R"("status":"ok")"), std::string::npos);
      client.send_line(query_line(2, session));
      EXPECT_NE(client.recv_line().find(R"("report":)"), std::string::npos);
      // Disconnect promptly so a queued sibling can take the slot.
    });
  }
  for (std::thread& t : clients) t.join();

  Client closer(server.port());
  closer.send_line(R"({"type":"shutdown"})");
  (void)closer.recv_line();
  closer.close();
  EXPECT_EQ(server.join(), 0) << server.err();
}

// ---------------------------------------------------------------------
// Diagnostics surface the server and cross-connection counters
// ---------------------------------------------------------------------

TEST(ServeConcurrent, DiagnosticsReportServerAndSharedCounters) {
  Engine engine;
  Server server(engine, 4);

  Client warm(server.port());
  warm.send_line(open_line(1, "w"));
  (void)warm.recv_line();
  warm.send_line(query_line(2, "w"));
  (void)warm.recv_line();

  Client probe(server.port());
  probe.send_line(open_line(1, "p"));
  (void)probe.recv_line();
  probe.send_line(R"({"id":2,"type":"diagnostics","session":"p"})");
  const std::string diagnostics = probe.recv_line();
  EXPECT_NE(diagnostics.find(R"("shared_flights":)"), std::string::npos);
  EXPECT_NE(diagnostics.find(R"("connections_active":2)"), std::string::npos);
  EXPECT_NE(diagnostics.find(R"("connections_served":2)"), std::string::npos);

  warm.close();
  probe.send_line(R"({"id":3,"type":"shutdown"})");
  (void)probe.recv_line();
  probe.close();
  EXPECT_EQ(server.join(), 0) << server.err();
}

}  // namespace
}  // namespace wharf::cli
