// Tests for the serve-mode wire protocol (io/wire.hpp): the minimal
// JSON reader, request parsing for every message/delta/query kind,
// response framing, and the TCP transport (cli/serve.hpp) over a real
// loopback socket.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/serve.hpp"
#include "dist/client.hpp"
#include "engine/engine.hpp"
#include "io/json.hpp"
#include "io/wire.hpp"
#include "util/strings.hpp"

namespace wharf::io {
namespace {

// ---------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------

TEST(WireJson, ParsesScalarsContainersAndEscapes) {
  const JsonValue v = parse_json(
      R"({"int":-42,"float":2.5,"bool":true,"none":null,)"
      R"("text":"a\"b\\c\ndA","list":[1,2,3],"nested":{"k":[{"x":1}]}})");
  EXPECT_EQ(v.at("int").as_int(), -42);
  EXPECT_DOUBLE_EQ(v.at("float").as_double(), 2.5);
  EXPECT_TRUE(v.at("bool").as_bool());
  EXPECT_TRUE(v.at("none").is_null());
  EXPECT_EQ(v.at("text").as_string(), "a\"b\\c\ndA");
  ASSERT_EQ(v.at("list").items().size(), 3u);
  EXPECT_EQ(v.at("list").items()[2].as_int(), 3);
  EXPECT_EQ(v.at("nested").at("k").items()[0].at("x").as_int(), 1);
  EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(WireJson, RejectsMalformedDocuments) {
  EXPECT_THROW((void)parse_json(""), ParseError);
  EXPECT_THROW((void)parse_json("{"), ParseError);
  EXPECT_THROW((void)parse_json("{\"a\":1,}"), ParseError);
  EXPECT_THROW((void)parse_json("[1 2]"), ParseError);
  EXPECT_THROW((void)parse_json("\"unterminated"), ParseError);
  EXPECT_THROW((void)parse_json("{\"a\":1} trailing"), ParseError);
  EXPECT_THROW((void)parse_json("nul"), ParseError);
  // Malformed numbers are rejected whole, never prefix-truncated.
  EXPECT_THROW((void)parse_json("{\"a\":1.2.3}"), ParseError);
  EXPECT_THROW((void)parse_json("{\"a\":1e2e3}"), ParseError);
  EXPECT_THROW((void)parse_json("{\"a\":--4}"), ParseError);
}

TEST(WireJson, BoundsNestingDepth) {
  const auto arrays = [](int depth) { return std::string(depth, '[') + std::string(depth, ']'); };
  EXPECT_NO_THROW((void)parse_json(arrays(kMaxJsonDepth)));
  EXPECT_THROW((void)parse_json(arrays(kMaxJsonDepth + 1)), ParseError);
  std::string objects;
  for (int i = 0; i <= kMaxJsonDepth; ++i) objects += R"({"k":)";
  objects += "1" + std::string(kMaxJsonDepth + 1, '}');
  EXPECT_THROW((void)parse_json(objects), ParseError);
  // A line of 20,000 unclosed brackets is a parse error, not a stack
  // overflow; as a request it becomes the protocol-error envelope.
  EXPECT_THROW((void)parse_json(std::string(20'000, '[')), ParseError);
  const Expected<WireRequest> request = parse_request(std::string(20'000, '['));
  ASSERT_FALSE(request.has_value());
  EXPECT_NE(wire_protocol_error(request.status()).find(R"("status":"parse-error")"),
            std::string::npos);
}

TEST(WireJson, AccessorsEnforceKinds) {
  const JsonValue v = parse_json(R"({"s":"x","n":1.5})");
  EXPECT_THROW((void)v.at("s").as_int(), InvalidArgument);
  EXPECT_THROW((void)v.at("n").as_int(), InvalidArgument);  // not integral
  EXPECT_THROW((void)v.at("s").items(), InvalidArgument);
  EXPECT_THROW((void)v.at("missing"), InvalidArgument);
}

// ---------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------

TEST(WireRequests, ParsesEveryMessageKind) {
  const Expected<WireRequest> open = parse_request(
      R"({"id":7,"type":"open_session","session":"s","system":"system x\nchain a ..."})");
  ASSERT_TRUE(open) << open.status().to_string();
  EXPECT_EQ(open.value().kind, WireKind::kOpenSession);
  EXPECT_EQ(open.value().id, 7);
  EXPECT_TRUE(open.value().has_id);
  EXPECT_EQ(open.value().session, "s");
  EXPECT_EQ(open.value().system_text, "system x\nchain a ...");

  const Expected<WireRequest> deltas = parse_request(
      R"({"type":"apply_delta","session":"s","deltas":[)"
      R"({"kind":"set_priority","task":"a.t","priority":3},)"
      R"({"kind":"set_wcet","task":"a.t","wcet":9},)"
      R"({"kind":"set_deadline","chain":"a","deadline":100},)"
      R"({"kind":"set_deadline","chain":"a","deadline":null},)"
      R"x({"kind":"set_arrival","chain":"a","arrival":"periodic(200)"},)x"
      R"({"kind":"add_chain","chain":"chain z kind=sync activation=periodic(100)\n  task z1 prio=9 wcet=5"},)"
      R"({"kind":"remove_chain","chain":"a"}]})");
  ASSERT_TRUE(deltas) << deltas.status().to_string();
  ASSERT_EQ(deltas.value().deltas.size(), 7u);
  EXPECT_FALSE(deltas.value().has_id);
  EXPECT_EQ(std::get<SetPriorityDelta>(deltas.value().deltas[0]).priority, 3);
  EXPECT_EQ(std::get<SetWcetDelta>(deltas.value().deltas[1]).wcet, 9);
  EXPECT_EQ(std::get<SetDeadlineDelta>(deltas.value().deltas[2]).deadline,
            std::optional<Time>(100));
  EXPECT_FALSE(std::get<SetDeadlineDelta>(deltas.value().deltas[3]).deadline.has_value());
  EXPECT_EQ(std::get<SetArrivalDelta>(deltas.value().deltas[4]).arrival, "periodic(200)");
  EXPECT_EQ(std::get<AddChainDelta>(deltas.value().deltas[5]).chain.name(), "z");
  EXPECT_EQ(std::get<RemoveChainDelta>(deltas.value().deltas[6]).chain, "a");

  const Expected<WireRequest> queries = parse_request(
      R"({"type":"query","session":"s","queries":[)"
      R"({"kind":"latency","chain":"a","without_overload":true},)"
      R"({"kind":"dmm","chain":"a","ks":[1,10]},)"
      R"({"kind":"weakly_hard","chain":"a","m":1,"k":20},)"
      R"({"kind":"simulation","horizon":5000,"seed":3,"cross_validate":false},)"
      R"({"kind":"priority_search","strategy":"random","budget":10,"seed":4},)"
      R"({"kind":"path_latency","chains":["a","b"]},)"
      R"({"kind":"path_dmm","chains":["a","b"],"deadline":300,"budgets":[100,200],"ks":[5]}]})");
  ASSERT_TRUE(queries) << queries.status().to_string();
  ASSERT_EQ(queries.value().queries.size(), 7u);
  EXPECT_TRUE(std::get<LatencyQuery>(queries.value().queries[0]).without_overload);
  EXPECT_EQ(std::get<DmmQuery>(queries.value().queries[1]).ks, (std::vector<Count>{1, 10}));
  EXPECT_EQ(std::get<WeaklyHardQuery>(queries.value().queries[2]).k, 20);
  EXPECT_EQ(std::get<SimulationQuery>(queries.value().queries[3]).horizon, 5000);
  EXPECT_FALSE(std::get<SimulationQuery>(queries.value().queries[3]).cross_validate);
  EXPECT_EQ(std::get<PrioritySearchQuery>(queries.value().queries[4]).strategy,
            PrioritySearchQuery::Strategy::kRandom);
  EXPECT_EQ(std::get<PathLatencyQuery>(queries.value().queries[5]).chains.size(), 2u);
  EXPECT_EQ(std::get<PathDmmQuery>(queries.value().queries[6]).deadline, 300);
  EXPECT_EQ(std::get<PathDmmQuery>(queries.value().queries[6]).budgets,
            (std::vector<Time>{100, 200}));

  for (const char* line : {R"({"type":"diagnostics","session":"s"})",
                           R"({"type":"close","session":"s"})", R"({"type":"shutdown"})"}) {
    const Expected<WireRequest> r = parse_request(line);
    EXPECT_TRUE(r) << line << ": " << r.status().to_string();
  }
}

// ---------------------------------------------------------------------
// TwcaOptions on open_session
// ---------------------------------------------------------------------

TEST(WireOptions, OpenSessionCarriesTwcaOptions) {
  const Expected<WireRequest> r = parse_request(
      R"({"type":"open_session","session":"s","system":"system x",)"
      R"("options":{"criterion":"exact_eq3","max_combinations":1234,)"
      R"("cap_at_k":false,"max_busy_windows":7,)"
      R"("max_fixed_point_iterations":99,"divergence_guard":1000,"naive_arbitrary":true}})");
  ASSERT_TRUE(r) << r.status().to_string();
  const TwcaOptions& o = r.value().options;
  EXPECT_EQ(o.criterion, SchedulabilityCriterion::kExactEq3);
  EXPECT_EQ(o.max_combinations, 1234u);
  EXPECT_FALSE(o.cap_at_k);
  EXPECT_EQ(o.analysis.max_busy_windows, 7);
  EXPECT_EQ(o.analysis.max_fixed_point_iterations, 99);
  EXPECT_EQ(o.analysis.divergence_guard, 1000);
  EXPECT_TRUE(o.analysis.naive_arbitrary);

  // Absent "options" means defaults — every field.
  const Expected<WireRequest> plain =
      parse_request(R"({"type":"open_session","session":"s","system":"system x"})");
  ASSERT_TRUE(plain) << plain.status().to_string();
  const TwcaOptions defaults;
  EXPECT_EQ(plain.value().options.criterion, defaults.criterion);
  EXPECT_EQ(plain.value().options.cap_at_k, defaults.cap_at_k);
  EXPECT_EQ(plain.value().options.analysis.divergence_guard,
            defaults.analysis.divergence_guard);
}

TEST(WireOptions, TwcaOptionsRoundTripThroughTheWire) {
  TwcaOptions options;
  options.criterion = SchedulabilityCriterion::kExactEq3;
  options.max_combinations = 4321;
  options.cap_at_k = false;
  options.analysis.max_busy_windows = 11;
  options.analysis.max_fixed_point_iterations = 22;
  options.analysis.divergence_guard = 3333;
  options.analysis.naive_arbitrary = true;

  std::ostringstream os;
  JsonWriter w(os);
  write_twca_options(w, options);
  const TwcaOptions parsed = parse_twca_options(parse_json(os.str()));
  EXPECT_EQ(parsed.criterion, options.criterion);
  EXPECT_EQ(parsed.max_combinations, options.max_combinations);
  EXPECT_EQ(parsed.cap_at_k, options.cap_at_k);
  EXPECT_EQ(parsed.analysis.max_busy_windows, options.analysis.max_busy_windows);
  EXPECT_EQ(parsed.analysis.max_fixed_point_iterations,
            options.analysis.max_fixed_point_iterations);
  EXPECT_EQ(parsed.analysis.divergence_guard, options.analysis.divergence_guard);
  EXPECT_EQ(parsed.analysis.naive_arbitrary, options.analysis.naive_arbitrary);

  // Defaults round-trip too (the writer emits every field).
  std::ostringstream defaults_os;
  JsonWriter defaults_writer(defaults_os);
  write_twca_options(defaults_writer, TwcaOptions{});
  const TwcaOptions defaults = parse_twca_options(parse_json(defaults_os.str()));
  EXPECT_EQ(defaults.criterion, TwcaOptions{}.criterion);
  EXPECT_EQ(defaults.max_combinations, TwcaOptions{}.max_combinations);
  EXPECT_EQ(defaults.analysis.divergence_guard, TwcaOptions{}.analysis.divergence_guard);
}

TEST(WireOptions, RejectsUnknownOrInvalidOptionFields) {
  const struct {
    const char* line;
  } cases[] = {
      {R"({"type":"open_session","session":"s","system":"x","options":{"frobnicate":1}})"},
      {R"({"type":"open_session","session":"s","system":"x","options":{"criterion":"psychic"}})"},
      {R"({"type":"open_session","session":"s","system":"x","options":{"max_combinations":0}})"},
      {R"({"type":"open_session","session":"s","system":"x","options":{"divergence_guard":-5}})"},
  };
  for (const auto& c : cases) {
    const Expected<WireRequest> r = parse_request(c.line);
    ASSERT_FALSE(r.has_value()) << c.line;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << c.line;
  }
}

TEST(WireOptions, RetiredPackerAndCombinationSetKeysAreUnknown) {
  // One exact packer and the minimal combination set are all there is
  // (neither switch could change a dmm), so the two retired keys are
  // refused like any other unknown key.
  for (const char* key : {"use_dfs_packer", "minimal_only"}) {
    const std::string line = util::cat(
        R"({"type":"open_session","session":"s","system":"x","options":{")", key, R"(":true}})");
    const Expected<WireRequest> r = parse_request(line);
    ASSERT_FALSE(r.has_value()) << line;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(r.status().message().find(util::cat("unknown analysis option '", key, "'")),
              std::string::npos)
        << r.status().message();
  }
}

TEST(WireRequests, MalformedRequestsAreStatusesNotThrows) {
  const struct {
    const char* line;
    StatusCode code;
  } cases[] = {
      {"not json", StatusCode::kParseError},
      {R"({"type":"frobnicate","session":"s"})", StatusCode::kInvalidArgument},
      {R"({"type":"open_session"})", StatusCode::kInvalidArgument},       // no session
      {R"({"type":"open_session","session":""})", StatusCode::kInvalidArgument},
      {R"({"type":"open_session","session":"s"})", StatusCode::kInvalidArgument},  // no system
      {R"({"type":"apply_delta","session":"s","deltas":[{"kind":"warp"}]})",
       StatusCode::kInvalidArgument},
      {R"({"type":"query","session":"s","queries":[{"kind":"psychic"}]})",
       StatusCode::kInvalidArgument},
      {R"({"type":"query","session":"s","queries":[{"kind":"priority_search","strategy":"quantum"}]})",
       StatusCode::kInvalidArgument},
  };
  for (const auto& c : cases) {
    const Expected<WireRequest> r = parse_request(c.line);
    ASSERT_FALSE(r.has_value()) << c.line;
    EXPECT_EQ(r.status().code(), c.code) << c.line << " -> " << r.status().to_string();
  }
}

TEST(WireRequests, DeadlineAndStreamFieldsParse) {
  const Expected<WireRequest> both = parse_request(
      R"({"id":1,"type":"query","session":"s","deadline_ms":250,"stream":true,)"
      R"("queries":[{"kind":"latency","chain":"c"}]})");
  ASSERT_TRUE(both) << both.status().to_string();
  EXPECT_EQ(both.value().deadline_ms, 250);
  EXPECT_TRUE(both.value().stream);

  // Both default off: an ordinary request has no deadline, no stream.
  const Expected<WireRequest> plain = parse_request(
      R"({"type":"query","session":"s","queries":[{"kind":"latency","chain":"c"}]})");
  ASSERT_TRUE(plain);
  EXPECT_EQ(plain.value().deadline_ms, 0);
  EXPECT_FALSE(plain.value().stream);

  // deadline_ms rides any request kind (it bounds queue time, not work).
  const Expected<WireRequest> close =
      parse_request(R"({"type":"close","session":"s","deadline_ms":5})");
  ASSERT_TRUE(close);
  EXPECT_EQ(close.value().deadline_ms, 5);

  // Zero and negative deadlines are nonsense, not "already expired".
  for (const char* bad :
       {R"({"type":"close","session":"s","deadline_ms":0})",
        R"({"type":"close","session":"s","deadline_ms":-3})"}) {
    const Expected<WireRequest> r = parse_request(bad);
    ASSERT_FALSE(r.has_value()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(WireRequests, IntegersPastTheirRangeAreRefusedNeverTruncated) {
  // 2^32 + 3 wraps to 3 in an int.  Every field narrowed to an int is
  // refused outside the int range, naming the field.
  const struct {
    const char* line;
    const char* field;
  } cases[] = {
      {R"({"type":"apply_delta","session":"s","deltas":[)"
       R"({"kind":"set_priority","task":"c.t","priority":4294967299}]})",
       "priority must be in [-2147483648, 2147483647], got 4294967299"},
      {R"({"type":"apply_delta","session":"s","deltas":[)"
       R"({"kind":"set_priority","task":"c.t","priority":-2147483649}]})",
       "priority must be in [-2147483648, 2147483647], got -2147483649"},
      {R"({"type":"query","session":"s","queries":[)"
       R"({"kind":"priority_search","strategy":"random","budget":4294967299}]})",
       "budget must be in [-2147483648, 2147483647], got 4294967299"},
      {R"({"type":"query","session":"s","queries":[)"
       R"({"kind":"priority_search","restarts":4294967297}]})",
       "restarts must be in [-2147483648, 2147483647], got 4294967297"},
      {R"({"type":"evaluate","session":"s","unit":0,"candidates":[[1,4294967299]]})",
       "priority must be in [-2147483648, 2147483647], got 4294967299"},
      {R"({"type":"open_session","session":"s","system":"x",)"
       R"("options":{"max_fixed_point_iterations":4294967297}})",
       "max_fixed_point_iterations must be in [1, 2147483647], got 4294967297"},
      {R"({"type":"open_session","session":"s","system":"x",)"
       R"("options":{"max_fixed_point_iterations":0}})",
       "max_fixed_point_iterations must be in [1, 2147483647], got 0"},
  };
  for (const auto& c : cases) {
    const Expected<WireRequest> r = parse_request(c.line);
    ASSERT_FALSE(r.has_value()) << c.line;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << c.line;
    EXPECT_NE(r.status().message().find(c.field), std::string::npos) << r.status().message();
  }

  // The int bounds themselves still parse.
  const Expected<WireRequest> edge = parse_request(
      R"({"type":"query","session":"s","queries":[)"
      R"({"kind":"priority_search","budget":2147483647,"restarts":-2147483648}]})");
  ASSERT_TRUE(edge) << edge.status().to_string();
  const auto& query = std::get<PrioritySearchQuery>(edge.value().queries[0]);
  EXPECT_EQ(query.budget, 2147483647);
  EXPECT_EQ(query.restarts, -2147483647 - 1);
}

// ---------------------------------------------------------------------
// Bounded line framing
// ---------------------------------------------------------------------

TEST(WireFraming, LineAssemblerReassemblesAcrossArbitraryChunks) {
  LineAssembler assembler;
  const std::string text = "first line\nsecond\r\n\nlast";
  // Feed one byte at a time — the torture framing of a dribbling client.
  std::vector<std::string> lines;
  std::string line;
  for (const char c : text) {
    assembler.feed(&c, 1);
    while (assembler.next(line) == LineAssembler::Result::kLine) lines.push_back(line);
  }
  // "last" has no newline yet: buffered, not produced.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "first line");
  EXPECT_EQ(lines[1], "second\r");  // '\r' kept; the parser skips it
  EXPECT_EQ(lines[2], "");
  EXPECT_EQ(assembler.buffered(), 4u);
  assembler.feed("!\n", 2);
  ASSERT_EQ(assembler.next(line), LineAssembler::Result::kLine);
  EXPECT_EQ(line, "last!");
  EXPECT_EQ(assembler.next(line), LineAssembler::Result::kNone);
}

TEST(WireFraming, LineAssemblerDiscardsOversizedLinesAndResyncs) {
  LineAssembler assembler(8);
  std::string line;
  // The bound trips mid-line, long before the newline arrives, and the
  // buffer never grows with the discarded bytes.
  const std::string big(1000, 'x');
  assembler.feed(big.data(), big.size());
  ASSERT_EQ(assembler.next(line), LineAssembler::Result::kOversized);
  EXPECT_LE(assembler.buffered(), 8u);
  // Still discarding: more oversized bytes and the terminating newline
  // are swallowed silently, then the next line parses normally.
  assembler.feed(big.data(), big.size());
  EXPECT_EQ(assembler.next(line), LineAssembler::Result::kNone);
  assembler.feed("\nok\n", 4);
  ASSERT_EQ(assembler.next(line), LineAssembler::Result::kLine);
  EXPECT_EQ(line, "ok");

  // An exactly-at-bound line passes; one byte more trips.
  assembler.feed("12345678\n", 9);
  ASSERT_EQ(assembler.next(line), LineAssembler::Result::kLine);
  EXPECT_EQ(line, "12345678");
  assembler.feed("123456789\n", 10);
  ASSERT_EQ(assembler.next(line), LineAssembler::Result::kOversized);
  EXPECT_EQ(assembler.next(line), LineAssembler::Result::kNone);
}

TEST(WireFraming, ReadLineBoundedMirrorsGetlineWithABound) {
  std::istringstream in("short\n" + std::string(100, 'y') + "\nafter\nfinal");
  std::string line;
  bool oversized = false;
  ASSERT_TRUE(read_line_bounded(in, line, 16, oversized));
  EXPECT_EQ(line, "short");
  EXPECT_FALSE(oversized);
  // The oversized line is reported once and discarded to its newline.
  ASSERT_TRUE(read_line_bounded(in, line, 16, oversized));
  EXPECT_TRUE(oversized);
  ASSERT_TRUE(read_line_bounded(in, line, 16, oversized));
  EXPECT_EQ(line, "after");
  EXPECT_FALSE(oversized);
  // An unterminated final line still counts as a read...
  ASSERT_TRUE(read_line_bounded(in, line, 16, oversized));
  EXPECT_EQ(line, "final");
  // ...and EOF with nothing buffered ends the loop.
  EXPECT_FALSE(read_line_bounded(in, line, 16, oversized));
}

TEST(WireFraming, OversizedLineErrorNamesTheBound) {
  const std::string error = oversized_line_error(4096);
  EXPECT_NE(error.find(R"("type":"error")"), std::string::npos);
  EXPECT_NE(error.find("4096-byte protocol bound"), std::string::npos);
}

TEST(WireResponses, FrameEnvelopeAndExtras) {
  WireRequest request;
  request.kind = WireKind::kApplyDelta;
  request.id = 11;
  request.has_id = true;
  request.session = "s1";

  const std::string ok = wire_response(request, Status::ok(), [](JsonWriter& w) {
    w.key("revision");
    w.value(3);
  });
  EXPECT_EQ(ok, R"({"id":11,"type":"apply_delta","session":"s1","status":"ok","revision":3})");

  const std::string error =
      wire_response(request, Status::not_found("unknown session 's1'"));
  EXPECT_EQ(
      error,
      R"({"id":11,"type":"apply_delta","session":"s1","status":"not-found","reason":"unknown session 's1'"})");

  EXPECT_EQ(wire_protocol_error(Status::parse_error("bad line")),
            R"({"type":"error","status":"parse-error","reason":"bad line"})");
}

// ---------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------

/// Sends `payload` to 127.0.0.1:`port`, half-closes, and drains the
/// response until EOF.
std::string roundtrip_tcp(int port, const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);

  std::size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n = ::send(fd, payload.data() + sent, payload.size() - sent, 0);
    if (n <= 0) {
      ADD_FAILURE() << "send(): " << std::strerror(errno);
      break;
    }
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);

  std::string out;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n <= 0) break;
    out.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(WireTcp, ListenerServesAConversationAndShutsDown) {
  Engine engine;
  int port = 0;
  const Expected<int> listener = cli::bind_serve_socket(0, port);
  ASSERT_TRUE(listener) << listener.status().to_string();
  ASSERT_GT(port, 0);

  int exit_code = -1;
  std::ostringstream err;
  std::thread server(
      [&] { exit_code = cli::serve_listener(engine, listener.value(), 2, err); });

  const std::string conversation =
      R"({"id":1,"type":"open_session","session":"s","system":"system t\nchain a kind=sync activation=periodic(100) deadline=90\n  task a1 prio=1 wcet=10\n"})"
      "\n"
      R"({"id":2,"type":"query","session":"s","queries":[{"kind":"dmm","chain":"a","ks":[5]}]})"
      "\n"
      R"({"id":3,"type":"shutdown"})"
      "\n";
  const std::string transcript = roundtrip_tcp(port, conversation);
  server.join();

  EXPECT_EQ(exit_code, 0) << err.str();
  std::vector<std::string> lines;
  std::istringstream stream(transcript);
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u) << transcript;
  EXPECT_NE(lines[0].find(R"("id":1)"), std::string::npos);
  EXPECT_NE(lines[0].find(R"("status":"ok")"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("report":{"system":"t")"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("dmm":0)"), std::string::npos);
  EXPECT_NE(lines[2].find(R"("type":"shutdown","status":"ok")"), std::string::npos);
}

// ---------------------------------------------------------------------
// Evaluate requests (the distributed sweep's wire surface)
// ---------------------------------------------------------------------

TEST(WireRequests, ParsesEvaluateShardUnits) {
  const Expected<WireRequest> r = parse_request(
      R"({"id":4,"type":"evaluate","session":"s","unit":9,"k":7,)"
      R"("candidates":[[1,2,3],[3,2,1]]})");
  ASSERT_TRUE(r) << r.status().to_string();
  EXPECT_EQ(r.value().kind, WireKind::kEvaluate);
  EXPECT_EQ(r.value().unit, 9u);
  EXPECT_EQ(r.value().eval_k, 7);
  ASSERT_EQ(r.value().candidates.size(), 2u);
  EXPECT_EQ(r.value().candidates[1], (std::vector<Priority>{3, 2, 1}));

  // k is optional (the serve-side default applies); the rest is not.
  const Expected<WireRequest> no_k =
      parse_request(R"({"type":"evaluate","session":"s","unit":0,"candidates":[[1]]})");
  ASSERT_TRUE(no_k) << no_k.status().to_string();
  EXPECT_FALSE(parse_request(R"({"type":"evaluate","session":"s","unit":-1,"candidates":[[1]]})")
                   .has_value());
  EXPECT_FALSE(
      parse_request(R"({"type":"evaluate","session":"s","unit":1,"candidates":[]})").has_value());
  EXPECT_FALSE(parse_request(R"({"type":"evaluate","session":"s","unit":1,"k":0,)"
                             R"("candidates":[[1]]})")
                   .has_value());
}

// ---------------------------------------------------------------------
// Error envelopes through the coordinator's worker transport
// ---------------------------------------------------------------------

// The sweep coordinator's client pool (dist::WorkerLink) against a real
// spawned `wharf serve` worker: every way a request can go wrong must
// come back as a structured envelope on the same stream — never a
// closed connection or a desynchronized protocol.
TEST(WireWorkerPool, ErrorEnvelopesFlowThroughTheCoordinatorTransport) {
  wharf::dist::WorkerSpec spec;
  spec.binary = WHARF_BINARY_PATH;
  Expected<wharf::dist::WorkerLink> opened = wharf::dist::WorkerLink::open(spec);
  ASSERT_TRUE(opened) << opened.status().to_string();
  wharf::dist::WorkerLink worker = std::move(opened.value());

  // An unknown request type is a protocol error envelope.
  ASSERT_TRUE(worker.send_line(R"({"id":1,"type":"frobnicate"})"));
  Expected<std::string> unknown = worker.read_line(20000);
  ASSERT_TRUE(unknown) << unknown.status().to_string();
  EXPECT_NE(unknown.value().find(R"("type":"error")"), std::string::npos) << unknown.value();
  EXPECT_NE(unknown.value().find("unknown request type"), std::string::npos) << unknown.value();

  const std::string system_text =
      "system t\nchain a kind=sync activation=periodic(100) deadline=90\n"
      "  task a1 prio=1 wcet=10\n  task a2 prio=2 wcet=10\n";
  ASSERT_TRUE(worker.send_line(
      util::cat(R"({"id":2,"type":"open_session","session":"s","system":")",
                json_escape(system_text), R"("})")));
  Expected<std::string> ack = worker.read_line(20000);
  ASSERT_TRUE(ack) << ack.status().to_string();
  EXPECT_NE(ack.value().find(R"("status":"ok")"), std::string::npos) << ack.value();

  // A malformed shard unit — a candidate whose arity does not match the
  // session's task count — is an evaluate error envelope, request id
  // preserved (that attribution is what lets the coordinator re-issue
  // the unit elsewhere).
  ASSERT_TRUE(worker.send_line(
      R"({"id":3,"type":"evaluate","session":"s","unit":1,"k":5,"candidates":[[1]]})"));
  Expected<std::string> malformed = worker.read_line(20000);
  ASSERT_TRUE(malformed) << malformed.status().to_string();
  EXPECT_NE(malformed.value().find(R"("id":3)"), std::string::npos) << malformed.value();
  EXPECT_NE(malformed.value().find(R"("type":"evaluate")"), std::string::npos)
      << malformed.value();
  EXPECT_EQ(malformed.value().find(R"("status":"ok")"), std::string::npos) << malformed.value();

  // An oversized request line is answered with the bound-naming error
  // envelope...
  ASSERT_TRUE(worker.send_line(std::string(kMaxWireLineBytes + 16, 'x')));
  Expected<std::string> oversized = worker.read_line(20000);
  ASSERT_TRUE(oversized) << oversized.status().to_string();
  EXPECT_NE(oversized.value().find(R"("type":"error")"), std::string::npos)
      << oversized.value();
  EXPECT_NE(oversized.value().find("protocol bound"), std::string::npos) << oversized.value();

  // ...and the stream stays in sync: the next well-formed unit scores
  // normally on the same connection.
  ASSERT_TRUE(worker.send_line(
      R"({"id":4,"type":"evaluate","session":"s","unit":2,"k":5,"candidates":[[2,1]]})"));
  Expected<std::string> scored = worker.read_line(20000);
  ASSERT_TRUE(scored) << scored.status().to_string();
  EXPECT_NE(scored.value().find(R"("status":"ok")"), std::string::npos) << scored.value();
  EXPECT_NE(scored.value().find(R"("unit":2)"), std::string::npos) << scored.value();
  EXPECT_NE(scored.value().find(R"("objectives":[)"), std::string::npos) << scored.value();

  worker.close_fd();
  worker.reap(/*grace_ms=*/5000);
}

}  // namespace
}  // namespace wharf::io
