// Unit tests for the wharf CLI (src/cli), driven through in-memory
// streams: every subcommand, exit code and error path.  One serve case
// runs the real binary, because a broken stdout needs a real pipe.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <sstream>

#include "cli/cli.hpp"
#include "cli/serve.hpp"
#include "core/case_studies.hpp"
#include "io/json.hpp"
#include "io/system_format.hpp"
#include "io/wire.hpp"

namespace wharf::cli {
namespace {

struct CliRun {
  int exit_code = -1;
  std::string out;
  std::string err;
};

CliRun invoke(const std::vector<std::string>& args, const std::string& stdin_text = "") {
  std::istringstream in(stdin_text);
  std::ostringstream out;
  std::ostringstream err;
  CliRun run;
  run.exit_code = cli::run(args, in, out, err);
  run.out = out.str();
  run.err = err.str();
  return run;
}

std::string case_study_text() {
  return io::serialize_system(
      case_studies::date17_case_study(case_studies::OverloadModel::kRareOverload));
}

TEST(Cli, HelpAndNoArgs) {
  const CliRun help = invoke({"help"});
  EXPECT_EQ(help.exit_code, 0);
  EXPECT_NE(help.out.find("usage:"), std::string::npos);

  const CliRun none = invoke({});
  EXPECT_EQ(none.exit_code, 1);
  EXPECT_NE(none.out.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommand) {
  const CliRun r = invoke({"frobnicate"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, AnalyzeFromStdin) {
  const CliRun r = invoke({"analyze", "-", "--k", "3,76,250"}, case_study_text());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("sigma_c"), std::string::npos);
  EXPECT_NE(r.out.find("331"), std::string::npos);
  EXPECT_NE(r.out.find("dmm(76)"), std::string::npos);
  EXPECT_NE(r.out.find("always meets"), std::string::npos);
}

TEST(Cli, AnalyzeJson) {
  const CliRun r = invoke({"analyze", "-", "--json", "--k", "3"}, case_study_text());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("\"system\":\"date17_case_study\""), std::string::npos);
  EXPECT_NE(r.out.find("\"wcl\":331"), std::string::npos);
  EXPECT_NE(r.out.find("\"dmm\":3"), std::string::npos);
}

TEST(Cli, AnalyzeRejectsBadFile) {
  const CliRun r = invoke({"analyze", "/nonexistent/path.wharf"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(Cli, AnalyzeRejectsParseError) {
  const CliRun r = invoke({"analyze", "-"}, "system x\nbogus line\n");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("line 2"), std::string::npos);
}

TEST(Cli, AnalyzeRejectsBadK) {
  const CliRun r = invoke({"analyze", "-", "--k", "3,zero"}, case_study_text());
  EXPECT_EQ(r.exit_code, 1);
}

TEST(Cli, AnalyzeUsage) {
  const CliRun r = invoke({"analyze"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("exactly one file"), std::string::npos);
}

TEST(Cli, DmmPointQuery) {
  const CliRun r = invoke({"dmm", "-", "sigma_c", "--k", "76"}, case_study_text());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("dmm_sigma_c(76) = 4"), std::string::npos);
}

TEST(Cli, DmmBreakpoints) {
  // The whole output, byte for byte: the point query, then the paper's
  // Table II breakpoints (dmm climbs to 4 at k=76 and to 5 at k=250).
  const CliRun r = invoke({"dmm", "-", "sigma_c", "--breakpoints", "300"}, case_study_text());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_EQ(r.out,
            "dmm_sigma_c(10) = 3  [bounded]\n"
            "+---------+--------+\n"
            "| first k | dmm(k) |\n"
            "+---------+--------+\n"
            "| 1       | 1      |\n"
            "| 2       | 2      |\n"
            "| 3       | 3      |\n"
            "| 76      | 4      |\n"
            "| 250     | 5      |\n"
            "+---------+--------+\n");
  EXPECT_EQ(r.err, "");
}

TEST(Cli, DmmUnknownChain) {
  const CliRun r = invoke({"dmm", "-", "sigma_zz"}, case_study_text());
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("unknown chain"), std::string::npos);
}

TEST(Cli, DmmRejectsOverloadTarget) {
  const CliRun r = invoke({"dmm", "-", "sigma_a"}, case_study_text());
  EXPECT_EQ(r.exit_code, 2);
}

TEST(Cli, SimulateGreedy) {
  const CliRun r = invoke({"simulate", "-", "--horizon", "50000"}, case_study_text());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("sigma_c"), std::string::npos);
  EXPECT_NE(r.out.find("max latency"), std::string::npos);
}

TEST(Cli, SimulateWithGantt) {
  const CliRun r = invoke({"simulate", "-", "--horizon", "1000", "--gantt", "400"},
                          case_study_text());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("#"), std::string::npos);
  EXPECT_NE(r.out.find("sigma_d.tau1_d"), std::string::npos);
}

TEST(Cli, SimulateRandomizedArrivals) {
  const CliRun r = invoke(
      {"simulate", "-", "--horizon", "50000", "--extra-gap", "500", "--seed", "9"},
      case_study_text());
  EXPECT_EQ(r.exit_code, 0) << r.err;
}

TEST(Cli, SearchClimb) {
  const CliRun r = invoke({"search", "-", "--k", "10"}, case_study_text());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("nominal:"), std::string::npos);
  EXPECT_NE(r.out.find("best:"), std::string::npos);
  EXPECT_NE(r.out.find("missing=0"), std::string::npos);  // climb finds zero-miss
}

TEST(Cli, SearchRandomStrategy) {
  const CliRun r = invoke({"search", "-", "--strategy", "random", "--budget", "50", "--seed",
                           "3"},
                          case_study_text());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("50 evaluations"), std::string::npos);
}

TEST(Cli, SearchRejectsBadStrategy) {
  const CliRun r = invoke({"search", "-", "--strategy", "quantum"}, case_study_text());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown strategy"), std::string::npos);
}

TEST(Cli, SearchHillAliasAndRestartsAndJobs) {
  const CliRun r = invoke({"search", "-", "--strategy", "hill", "--budget", "3", "--restarts",
                           "2", "--seed", "5", "--jobs", "2"},
                          case_study_text());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("best:"), std::string::npos);
  EXPECT_NE(r.out.find("store:"), std::string::npos);  // reuse telemetry line
}

TEST(Cli, SearchExhaustiveGuardSurfacesAsInputError) {
  // 13 tasks -> 13! permutations: the guard must refuse with a status,
  // mapped to the input-error exit code, not crash or run forever.
  const CliRun r = invoke({"search", "-", "--strategy", "exhaustive"}, case_study_text());
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("max_permutations"), std::string::npos);
}

TEST(Cli, SearchMaxPermutationsIsConfigurable) {
  // A two-chain, three-task system: 3! = 6 permutations.  A guard of 6
  // admits the search, 5 refuses it.
  const std::string text =
      "system tiny\n"
      "chain a kind=sync activation=periodic(100) deadline=90\n"
      "  task a1 prio=1 wcet=10\n"
      "  task a2 prio=2 wcet=10\n"
      "chain b kind=sync activation=periodic(200) deadline=150\n"
      "  task b1 prio=3 wcet=20\n";
  const CliRun ok = invoke(
      {"search", "-", "--strategy", "exhaustive", "--max-permutations", "6"}, text);
  EXPECT_EQ(ok.exit_code, 0) << ok.err;
  EXPECT_NE(ok.out.find("6 evaluations"), std::string::npos);
  const CliRun blocked = invoke(
      {"search", "-", "--strategy", "exhaustive", "--max-permutations", "5"}, text);
  EXPECT_EQ(blocked.exit_code, 2);
  EXPECT_NE(blocked.err.find("max_permutations"), std::string::npos);
}

TEST(Cli, IntegerFlagsPastIntRangeAreRefusedNeverTruncated) {
  // 2^32 + 3 and 2^32 + 1 would wrap to 3 and 1 in an int.  Each must be
  // a usage error naming the flag, before any work starts.  The sweeps
  // name a closed local peer, so even a regression spawns no worker.
  const struct {
    std::vector<std::string> args;
    const char* message;
  } cases[] = {
      {{"search", "-", "--strategy", "random", "--budget", "4294967299", "--json"},
       "invalid budget: '4294967299'"},
      {{"search", "-", "--restarts", "4294967297"}, "invalid restarts: '4294967297'"},
      {{"search", "-", "--jobs", "4294967297"}, "invalid --jobs: '4294967297'"},
      {{"analyze", "-", "--jobs", "4294967297"}, "invalid --jobs: '4294967297'"},
      {{"sweep", "-", "--strategy", "random", "--budget", "4294967299", "--connect",
        "127.0.0.1:1"},
       "invalid budget: '4294967299'"},
      {{"sweep", "-", "--strategy", "random", "--budget", "4", "--window", "4294967297",
        "--connect", "127.0.0.1:1"},
       "invalid window: '4294967297'"},
      {{"sweep", "-", "--strategy", "random", "--budget", "4", "--max-restarts", "4294967297",
        "--connect", "127.0.0.1:1"},
       "invalid restart budget: '4294967297'"},
      {{"serve", "--max-connections", "4294967297"}, "invalid --max-connections: '4294967297'"},
      {{"serve", "--jobs", "4294967297"}, "invalid --jobs: '4294967297'"},
  };
  for (const auto& c : cases) {
    const CliRun r = invoke(c.args, case_study_text());
    EXPECT_EQ(r.exit_code, 1) << c.args[0] << " " << c.message;
    EXPECT_NE(r.err.find(c.message), std::string::npos) << r.err;
    EXPECT_EQ(r.out, "") << c.message;
  }
}

TEST(Cli, SweepNamesTheRefusedPeer) {
  // A loopback socket that is bound but never listens refuses every
  // connection, and holding it keeps the port ours for the whole test.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  socklen_t length = sizeof addr;
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &length), 0);
  const std::string peer = "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));

  const CliRun r = invoke({"sweep", "-", "--strategy", "random", "--budget", "4", "--connect",
                           peer},
                          case_study_text());
  ::close(fd);
  // Not an internal fault: the status names the peer and the transport
  // error; the exit code stays the documented 2.
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.err, "not-found: no worker could be started: " + peer + ": connect(" + peer +
                       "): Connection refused\n");
  EXPECT_EQ(r.out, "");
}

TEST(Cli, SearchJsonCarriesStoreTelemetry) {
  const CliRun r = invoke({"search", "-", "--strategy", "random", "--budget", "10", "--json"},
                          case_study_text());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("\"query\":\"priority_search\""), std::string::npos);
  EXPECT_NE(r.out.find("\"store\":"), std::string::npos);
  EXPECT_NE(r.out.find("\"search\":"), std::string::npos);
  EXPECT_NE(r.out.find("\"evaluations\":"), std::string::npos);
}

TEST(Cli, Validate) {
  const CliRun good = invoke({"validate", "-"}, case_study_text());
  EXPECT_EQ(good.exit_code, 0);
  EXPECT_NE(good.out.find("ok:"), std::string::npos);

  const CliRun bad = invoke({"validate", "-"}, "system x\n");
  EXPECT_EQ(bad.exit_code, 2);
}

// A system that can miss deadlines with no overload chain declared:
// TWCA can prove nothing (DmmStatus::kNoGuarantee) — exit code 3.
std::string no_guarantee_text() {
  return "system tight\n"
         "chain a kind=sync activation=periodic(100) deadline=10\n"
         "  task t1 prio=2 wcet=9\n"
         "chain b kind=sync activation=periodic(100) deadline=50\n"
         "  task t2 prio=1 wcet=50\n";
}

TEST(Cli, AnalyzeNoGuaranteeExitsThree) {
  const CliRun r = invoke({"analyze", "-"}, no_guarantee_text());
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.out.find("no guar"), std::string::npos);
  EXPECT_NE(r.err.find("no-guarantee"), std::string::npos);
}

TEST(Cli, AnalyzeJsonCarriesStatusAndReason) {
  const CliRun r = invoke({"analyze", "-", "--json"}, no_guarantee_text());
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.out.find("\"status\":\"no-guarantee\""), std::string::npos);
  EXPECT_NE(r.out.find("\"reason\""), std::string::npos);
  EXPECT_NE(r.out.find("\"diagnostics\""), std::string::npos);
}

TEST(Cli, AnalyzeJsonOkStatus) {
  const CliRun r = invoke({"analyze", "-", "--json", "--k", "3"}, case_study_text());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(r.out.find("\"cache_hit\":false"), std::string::npos);
  EXPECT_NE(r.out.find("\"cache_misses\":"), std::string::npos);
  // Per-stage artifact-store counters are part of the --json surface.
  EXPECT_NE(r.out.find("\"stages\""), std::string::npos);
  EXPECT_NE(r.out.find("\"busy_window\""), std::string::npos);
  EXPECT_NE(r.out.find("\"bytes_inserted\""), std::string::npos);
}

TEST(Cli, AnalyzeTextCarriesCacheSummary) {
  const CliRun r = invoke({"analyze", "-"}, case_study_text());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("artifact cache:"), std::string::npos);
  EXPECT_NE(r.out.find("busy_window 0/"), std::string::npos);
}

TEST(Cli, AnalyzeCacheBytesFlag) {
  const CliRun tiny = invoke({"analyze", "-", "--cache-bytes", "1024"}, case_study_text());
  EXPECT_EQ(tiny.exit_code, 0) << tiny.err;
  const CliRun unlimited = invoke({"analyze", "-", "--cache-bytes", "0"}, case_study_text());
  EXPECT_EQ(unlimited.exit_code, 0) << unlimited.err;
  // The budget changes residency, never answers.
  EXPECT_EQ(tiny.out, unlimited.out);
}

TEST(Cli, AnalyzeRejectsBadCacheBytes) {
  const CliRun r = invoke({"analyze", "-", "--cache-bytes", "lots"}, case_study_text());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("invalid --cache-bytes"), std::string::npos);
}

TEST(Cli, AnalyzeJobsProducesIdenticalOutput) {
  const CliRun sequential = invoke({"analyze", "-", "--k", "3,76", "--jobs", "1"},
                                   case_study_text());
  const CliRun parallel = invoke({"analyze", "-", "--k", "3,76", "--jobs", "4"},
                                 case_study_text());
  EXPECT_EQ(sequential.exit_code, 0) << sequential.err;
  EXPECT_EQ(parallel.exit_code, 0) << parallel.err;
  EXPECT_EQ(sequential.out, parallel.out);
}

TEST(Cli, AnalyzeRejectsBadJobs) {
  const CliRun r = invoke({"analyze", "-", "--jobs", "minus-two"}, case_study_text());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("invalid --jobs"), std::string::npos);
}

TEST(Cli, DmmNoGuaranteeExitsThree) {
  const CliRun r = invoke({"dmm", "-", "b"}, no_guarantee_text());
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.out.find("no-guarantee"), std::string::npos);
}

TEST(Cli, DmmJsonCarriesStatusFields) {
  const CliRun r = invoke({"dmm", "-", "sigma_c", "--k", "76", "--json"}, case_study_text());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("\"query\":\"dmm\""), std::string::npos);
  EXPECT_NE(r.out.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(r.out.find("\"dmm\":4"), std::string::npos);
}

TEST(Cli, DmmRejectsJsonWithBreakpoints) {
  const CliRun r = invoke({"dmm", "-", "sigma_c", "--json", "--breakpoints", "100"},
                          case_study_text());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("--breakpoints cannot be combined with --json"), std::string::npos);
}

TEST(Cli, MissingOptionValue) {
  const CliRun r = invoke({"analyze", "-", "--k"}, case_study_text());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("missing value"), std::string::npos);
}

TEST(Cli, UnknownFlagIsAUsageErrorNamingFlagAndSubcommand) {
  // Each subcommand accepts exactly the flags its usage line lists: a
  // typo, a `--flag=value` spelling or another subcommand's flag is
  // refused before anything runs, instead of being ignored.
  const struct {
    std::vector<std::string> args;
    std::string flag;
    std::string command;
  } cases[] = {
      {{"analyze", "-", "--jsn"}, "--jsn", "analyze"},
      {{"analyze", "-", "--jobs=4"}, "--jobs=4", "analyze"},
      {{"dmm", "-", "sigma_c", "--jobs", "2"}, "--jobs", "dmm"},
      {{"simulate", "-", "--json"}, "--json", "simulate"},
      {{"validate", "-", "--k", "3"}, "--k", "validate"},
      {{"serve", "--workers", "2"}, "--workers", "serve"},
  };
  for (const auto& c : cases) {
    const CliRun r = invoke(c.args, case_study_text());
    EXPECT_EQ(r.exit_code, 1) << c.flag;
    EXPECT_TRUE(r.out.empty()) << c.flag << ": " << r.out;
    EXPECT_NE(r.err.find("unknown flag '" + c.flag + "' for wharf " + c.command),
              std::string::npos)
        << r.err;
  }
}

// ---------------------------------------------------------------------------
// path subcommand
// ---------------------------------------------------------------------------

std::string linked_text() {
  // The path_test pipeline fixture: two stages plus an overload chain,
  // path WCL 220, bounded dmm under an end-to-end deadline of 200.
  return "system pipeline\n"
         "chain stage1 kind=sync activation=periodic(300) deadline=300\n"
         "  task s1a prio=6 wcet=20\n"
         "  task s1b prio=2 wcet=25\n"
         "chain stage2 kind=sync activation=periodic(300) deadline=300\n"
         "  task s2a prio=5 wcet=15\n"
         "  task s2b prio=1 wcet=30\n"
         "chain ov kind=sync activation=sporadic(10000) overload\n"
         "  task ov1 prio=7 wcet=35\n";
}

TEST(Cli, PathLatencyOnly) {
  const CliRun r = invoke({"path", "-", "stage1,stage2"}, linked_text());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("path stage1,stage2"), std::string::npos);
  EXPECT_NE(r.out.find("WCL <="), std::string::npos);
}

TEST(Cli, PathWithDeadlineEmitsDmm) {
  const CliRun r = invoke({"path", "-", "stage1,stage2", "--deadline", "200", "--k", "5,10"},
                          linked_text());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("dmm_path(5)"), std::string::npos);
  EXPECT_NE(r.out.find("dmm_path(10)"), std::string::npos);
}

TEST(Cli, PathJson) {
  const CliRun r = invoke({"path", "-", "stage1,stage2", "--deadline", "200", "--json"}, linked_text());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("\"query\":\"path_latency\""), std::string::npos);
  EXPECT_NE(r.out.find("\"query\":\"path_dmm\""), std::string::npos);
  EXPECT_NE(r.out.find("\"budgets\""), std::string::npos);
}

TEST(Cli, PathUnknownChainFails) {
  const CliRun r = invoke({"path", "-", "stage1,nope"}, linked_text());
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("unknown chain"), std::string::npos);
}

TEST(Cli, PathJsonEmitsFailedQueriesAsStatusEntries) {
  // Like analyze --json: a failed query is a structured status entry on
  // stdout, never a bare stderr line with empty stdout.
  const CliRun r = invoke({"path", "-", "stage1,nope", "--json"}, linked_text());
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.out.find("\"status\":\"not-found\""), std::string::npos);
  EXPECT_NE(r.out.find("\"reason\""), std::string::npos);
}

TEST(Cli, PathRejectsKWithoutDeadline) {
  const CliRun r = invoke({"path", "-", "stage1,stage2", "--k", "5"}, linked_text());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("require --deadline"), std::string::npos);
}

TEST(Cli, PathUsage) {
  const CliRun r = invoke({"path", "-"}, linked_text());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("path expects"), std::string::npos);
}

// ---------------------------------------------------------------------------
// serve subcommand (NDJSON session server; see cli/serve.hpp)
// ---------------------------------------------------------------------------

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  return lines;
}

TEST(Cli, ServeFullConversation) {
  const std::string conversation =
      "{\"id\":1,\"type\":\"open_session\",\"session\":\"s\",\"system\":\"" +
      io::json_escape(case_study_text()) +
      "\"}\n"
      R"({"id":2,"type":"query","session":"s","queries":[{"kind":"latency","chain":"sigma_c"},{"kind":"dmm","chain":"sigma_c","ks":[76]}]})"
      "\n"
      R"({"id":3,"type":"apply_delta","session":"s","deltas":[{"kind":"set_deadline","chain":"sigma_c","deadline":500}]})"
      "\n"
      R"({"id":4,"type":"query","session":"s","queries":[{"kind":"weakly_hard","chain":"sigma_c","m":2,"k":76}]})"
      "\n"
      R"({"id":5,"type":"diagnostics","session":"s"})"
      "\n"
      R"({"id":6,"type":"close","session":"s"})"
      "\n";
  const CliRun r = invoke({"serve"}, conversation);
  EXPECT_EQ(r.exit_code, 0) << r.err;

  const std::vector<std::string> lines = lines_of(r.out);
  ASSERT_EQ(lines.size(), 6u) << r.out;
  EXPECT_NE(lines[0].find(R"("status":"ok","system":"date17_case_study")"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("query":"latency")"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("wcl":331)"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("dmm":4)"), std::string::npos);  // dmm_sigma_c(76) = 4
  EXPECT_NE(lines[2].find(R"("revision":1)"), std::string::npos);
  EXPECT_NE(lines[3].find(R"("query":"weakly_hard")"), std::string::npos);
  EXPECT_NE(lines[4].find(R"("queries_served":3)"), std::string::npos);
  EXPECT_NE(lines[4].find(R"("sessions_open":1)"), std::string::npos);
  EXPECT_NE(lines[5].find(R"("type":"close","session":"s","status":"ok")"), std::string::npos);
}

TEST(Cli, ServePerRequestErrorsNeverExitNonZero) {
  // The serve-mode exit-code contract: malformed lines, unknown
  // sessions, bad deltas and failing queries are all JSON responses on
  // the stream; the process still exits 0 at EOF.
  const std::string conversation =
      "this is not json\n"
      R"({"id":1,"type":"query","session":"ghost","queries":[]})"
      "\n"
      "{\"id\":2,\"type\":\"open_session\",\"session\":\"s\",\"system\":\"" +
      io::json_escape(case_study_text()) +
      "\"}\n"
      R"({"id":3,"type":"open_session","session":"s","system":"system x"})"
      "\n"
      R"({"id":4,"type":"apply_delta","session":"s","deltas":[{"kind":"remove_chain","chain":"nope"}]})"
      "\n"
      R"({"id":5,"type":"query","session":"s","queries":[{"kind":"latency","chain":"nope"}]})"
      "\n"
      R"({"id":6,"type":"open_session","session":"bad","system":"system x\nbogus"})"
      "\n";
  const CliRun r = invoke({"serve"}, conversation);
  EXPECT_EQ(r.exit_code, 0) << r.err;

  const std::vector<std::string> lines = lines_of(r.out);
  ASSERT_EQ(lines.size(), 7u) << r.out;
  EXPECT_NE(lines[0].find(R"("type":"error","status":"parse-error")"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("status":"not-found")"), std::string::npos);
  EXPECT_NE(lines[2].find(R"("status":"ok")"), std::string::npos);
  EXPECT_NE(lines[3].find("already open"), std::string::npos);
  EXPECT_NE(lines[4].find(R"("status":"not-found")"), std::string::npos);
  // A failing query is a structured per-query status inside an OK
  // response, exactly like analyze --json.
  EXPECT_NE(lines[5].find(R"("status":"ok")"), std::string::npos);
  EXPECT_NE(lines[5].find(R"("status":"not-found")"), std::string::npos);
  EXPECT_NE(lines[6].find(R"("status":"parse-error")"), std::string::npos);
}

TEST(Cli, ServeRefusesIntegersPastTheirRange) {
  // A priority or search budget of 2^32 + 3 would wrap to 3: each is an
  // invalid-argument envelope, the session stays at revision 0, and the
  // next line is answered.
  const std::string conversation =
      "{\"id\":1,\"type\":\"open_session\",\"session\":\"s\",\"system\":\"" +
      io::json_escape(case_study_text()) +
      "\"}\n"
      R"({"id":2,"type":"apply_delta","session":"s","deltas":[{"kind":"set_priority","task":"sigma_c.tau3_c","priority":4294967299}]})"
      "\n"
      R"({"id":3,"type":"query","session":"s","queries":[{"kind":"priority_search","strategy":"random","budget":4294967299}]})"
      "\n"
      R"({"id":4,"type":"diagnostics","session":"s"})"
      "\n";
  const CliRun r = invoke({"serve"}, conversation);
  EXPECT_EQ(r.exit_code, 0) << r.err;

  const std::vector<std::string> lines = lines_of(r.out);
  ASSERT_EQ(lines.size(), 4u) << r.out;
  EXPECT_NE(lines[1].find(R"("status":"invalid-argument")"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("priority must be in [-2147483648, 2147483647], got 4294967299"),
            std::string::npos)
      << lines[1];
  EXPECT_NE(lines[2].find(R"("status":"invalid-argument")"), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("budget must be in [-2147483648, 2147483647], got 4294967299"),
            std::string::npos)
      << lines[2];
  EXPECT_NE(lines[3].find(R"("revision":0)"), std::string::npos) << lines[3];
}

TEST(Cli, ServeSessionsAreIncrementalAcrossDeltas) {
  // Same query before and after a priority-swap delta: the second query
  // response must show busy-window hits (only the touched slices were
  // re-keyed) — the incrementality is visible on the wire.
  const std::string conversation =
      "{\"id\":1,\"type\":\"open_session\",\"session\":\"s\",\"system\":\"" +
      io::json_escape(case_study_text()) +
      "\"}\n"
      R"({"id":2,"type":"query","session":"s","queries":[{"kind":"latency","chain":"sigma_c"},{"kind":"latency","chain":"sigma_d"}]})"
      "\n"
      R"({"id":3,"type":"apply_delta","session":"s","deltas":[{"kind":"set_priority","task":"sigma_c.tau1_c","priority":7},{"kind":"set_priority","task":"sigma_c.tau2_c","priority":8}]})"
      "\n"
      R"({"id":4,"type":"query","session":"s","queries":[{"kind":"latency","chain":"sigma_c"},{"kind":"latency","chain":"sigma_d"}]})"
      "\n";
  const CliRun r = invoke({"serve"}, conversation);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const std::vector<std::string> lines = lines_of(r.out);
  ASSERT_EQ(lines.size(), 4u) << r.out;
  EXPECT_NE(lines[3].find(R"("revision":1)"), std::string::npos);
  // The re-query after the swap reuses untouched chains' artifacts.
  EXPECT_NE(lines[3].find(R"("cache_hits":)"), std::string::npos);
  EXPECT_EQ(lines[3].find(R"("cache_hits":0,)"), std::string::npos) << lines[3];
}

TEST(Cli, ServeOverloadKeysTrackTargetTailPriorityAcrossSessions) {
  // Two sessions on one engine: s1 moves b's tail priority (b2 5 -> 3,
  // its minimum stays b1's), then s2 opens a system that shares s1's
  // overload slices under a key that reads only b's minimum priority.
  // `wharf analyze` answers dmm(b, 10) = 10 for s2's system; a stale
  // overload artifact answered 8.
  const auto system_text = [](int b2, int a2) {
    return "system tailprio\n"
           "chain b kind=sync activation=periodic(1000) deadline=300\n"
           "  task b1 prio=1 wcet=100\n"
           "  task b2 prio=" + std::to_string(b2) + " wcet=100\n"
           "chain a kind=sync activation=sporadic(1500) overload\n"
           "  task a1 prio=10 wcet=150\n"
           "  task a2 prio=" + std::to_string(a2) + " wcet=50\n"
           "  task a3 prio=8 wcet=100\n";
  };
  const std::string query = R"("queries":[{"kind":"dmm","chain":"b","ks":[10]}]})";
  const std::string conversation =
      R"({"id":1,"type":"open_session","session":"s1","system":")" +
      io::json_escape(system_text(5, 4)) + "\"}\n" +
      R"({"id":2,"type":"query","session":"s1",)" + query + "\n" +
      R"({"id":3,"type":"apply_delta","session":"s1","deltas":[{"kind":"set_priority","task":"b.b2","priority":3}]})"
      "\n" +
      R"({"id":4,"type":"query","session":"s1",)" + query + "\n" +
      R"({"id":5,"type":"open_session","session":"s2","system":")" +
      io::json_escape(system_text(3, 2)) + "\"}\n" +
      R"({"id":6,"type":"query","session":"s2",)" + query + "\n";
  const CliRun r = invoke({"serve"}, conversation);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const std::vector<std::string> lines = lines_of(r.out);
  ASSERT_EQ(lines.size(), 6u) << r.out;

  const CliRun oneshot = invoke({"dmm", "-", "b", "--k", "10"}, system_text(3, 2));
  EXPECT_EQ(oneshot.exit_code, 0) << oneshot.err;
  EXPECT_NE(oneshot.out.find("dmm_b(10) = 10 "), std::string::npos) << oneshot.out;
  EXPECT_NE(lines[5].find(R"("dmm":10,)"), std::string::npos) << lines[5];
}

TEST(Cli, ServeErrorReasonsCarryNoBuildPaths) {
  // A model precondition failure names its source location relative to
  // src/ (core/chain.cpp:NN), never a directory of the build machine.
  const std::string system =
      "system x\n"
      "chain a kind=sync activation=periodic(100) deadline=90\n"
      "  task a1 prio=1 wcet=-5\n";
  const CliRun r = invoke(
      {"serve"}, R"({"id":1,"type":"open_session","session":"s","system":")" +
                     io::json_escape(system) + "\"}\n");
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const std::vector<std::string> lines = lines_of(r.out);
  ASSERT_EQ(lines.size(), 1u) << r.out;
  const io::JsonValue doc = io::parse_json(lines[0]);
  EXPECT_EQ(doc.at("status").as_string(), "invalid-argument") << lines[0];
  const std::string reason = doc.at("reason").as_string();
  EXPECT_NE(reason.find("core/chain.cpp:"), std::string::npos) << reason;
  EXPECT_EQ(reason.find("/root"), std::string::npos) << reason;
  EXPECT_EQ(reason.find("/home"), std::string::npos) << reason;
  EXPECT_EQ(reason.find(" /"), std::string::npos) << reason;
  EXPECT_NE(reason.front(), '/') << reason;
}

TEST(Cli, ServeAnswersTheLineAfterADeeplyNestedOne) {
  const std::string conversation = std::string(20'000, '[') +
                                   "\n"
                                   R"({"id":2,"type":"diagnostics","session":"nope"})"
                                   "\n";
  const CliRun r = invoke({"serve"}, conversation);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const std::vector<std::string> lines = lines_of(r.out);
  ASSERT_EQ(lines.size(), 2u) << r.out;
  EXPECT_NE(lines[0].find(R"("status":"parse-error")"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find(R"("id":2)"), std::string::npos) << lines[1];
}

TEST(Cli, ServeShutdownMessageEndsTheLoop) {
  const std::string conversation =
      R"({"id":1,"type":"shutdown"})"
      "\n"
      R"({"id":2,"type":"diagnostics","session":"s"})"
      "\n";
  const CliRun r = invoke({"serve"}, conversation);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const std::vector<std::string> lines = lines_of(r.out);
  // Nothing after the shutdown acknowledgement is processed.
  ASSERT_EQ(lines.size(), 1u) << r.out;
  EXPECT_NE(lines[0].find(R"("type":"shutdown","status":"ok")"), std::string::npos);
}

TEST(Cli, StdioServeWithAClosedStdoutExitsFourAndSpills) {
  // A reader that went away is a transport failure: the real binary,
  // its stdout a pipe whose read end is closed before it starts, must
  // exit 4 after the graceful spill, not die of SIGPIPE (141).
  char name[] = "/tmp/wharf_cli_test_XXXXXX";
  ASSERT_NE(::mkdtemp(name), nullptr);
  const std::string store_dir = name;
  const std::string conversation =
      "{\"id\":1,\"type\":\"open_session\",\"session\":\"s\",\"system\":\"" +
      io::json_escape(case_study_text()) +
      "\"}\n"
      R"({"id":2,"type":"query","session":"s","queries":[{"kind":"latency","chain":"sigma_c"}]})"
      "\n";

  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);
  // The conversation fits the pipe buffer: write it whole, then EOF.
  ASSERT_EQ(::write(in_pipe[1], conversation.data(), conversation.size()),
            static_cast<ssize_t>(conversation.size()));
  ::close(in_pipe[1]);
  ::close(out_pipe[0]);  // nobody will ever read the answers

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // In-process serve tests above ignore SIGPIPE in this process, and
    // exec would inherit that: restore the default a shell gives.
    (void)std::signal(SIGPIPE, SIG_DFL);
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) ::dup2(null_fd, STDERR_FILENO);
    ::execl(WHARF_BINARY_PATH, WHARF_BINARY_PATH, "serve", "--store-dir", name,
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "killed by signal "
                                 << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  EXPECT_EQ(WEXITSTATUS(status), kTransportError);
  EXPECT_TRUE(std::filesystem::exists(store_dir + "/wharf_store.snapshot"));
  std::error_code ignored;
  std::filesystem::remove_all(store_dir, ignored);
}

TEST(Cli, ServeUsageErrors) {
  const CliRun positional = invoke({"serve", "file.wharf"});
  EXPECT_EQ(positional.exit_code, 1);
  EXPECT_NE(positional.err.find("no positional"), std::string::npos);

  const CliRun bad_port = invoke({"serve", "--listen", "notaport"});
  EXPECT_EQ(bad_port.exit_code, 1);
  EXPECT_NE(bad_port.err.find("invalid --listen"), std::string::npos);

  const CliRun bad_jobs = invoke({"serve", "--jobs", "-3"});
  EXPECT_EQ(bad_jobs.exit_code, 1);
}

TEST(Cli, HelpDocumentsServeExitCodes) {
  const CliRun help = invoke({"help"});
  EXPECT_EQ(help.exit_code, 0);
  EXPECT_NE(help.out.find("wharf serve"), std::string::npos);
  EXPECT_NE(help.out.find("--max-connections"), std::string::npos);
  // The canonical exit-code contract sentence — docs/serve-protocol.md
  // and the README state the same contract; this line is the normative
  // wording the CLI prints.
  EXPECT_NE(help.out.find("serve exit codes: 0 clean shutdown or EOF; 1 usage error; "
                          "4 transport failure"),
            std::string::npos);
  EXPECT_NE(help.out.find("neither ever exits the server"), std::string::npos);
}

TEST(Cli, ServeHelpPrintsUsageInsteadOfServing) {
  // `wharf serve --help` must print the usage (with the exit-code
  // contract) and exit 0 — it used to fall through into the serve loop
  // and sit reading stdin.
  const CliRun r = invoke({"serve", "--help"}, "this would be a protocol error\n");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
  EXPECT_NE(r.out.find("serve exit codes: 0 clean shutdown or EOF; 1 usage error; "
                       "4 transport failure"),
            std::string::npos);
  // No serve responses were emitted: the subcommand never ran.
  EXPECT_EQ(r.out.find("\"type\":\"error\""), std::string::npos);
}

TEST(Cli, ServeOpenSessionHonorsTwcaOptions) {
  // Two sessions over the same system: defaults, and a divergence guard
  // far below the real busy window — the optioned session must answer
  // differently (unbounded latency), proving the wire options reach the
  // Session instead of being accepted-but-ignored.
  const std::string conversation =
      "{\"id\":1,\"type\":\"open_session\",\"session\":\"plain\",\"system\":\"" +
      io::json_escape(case_study_text()) +
      "\"}\n"
      R"({"id":2,"type":"query","session":"plain","queries":[{"kind":"latency","chain":"sigma_c"}]})"
      "\n"
      "{\"id\":3,\"type\":\"open_session\",\"session\":\"guarded\",\"system\":\"" +
      io::json_escape(case_study_text()) +
      "\",\"options\":{\"divergence_guard\":50}}\n"
      R"({"id":4,"type":"query","session":"guarded","queries":[{"kind":"latency","chain":"sigma_c"}]})"
      "\n";
  const CliRun r = invoke({"serve"}, conversation);
  EXPECT_EQ(r.exit_code, 0) << r.err;
  const std::vector<std::string> lines = lines_of(r.out);
  ASSERT_EQ(lines.size(), 4u) << r.out;
  EXPECT_NE(lines[1].find(R"("bounded":true)"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("wcl":331)"), std::string::npos);
  EXPECT_NE(lines[3].find(R"("bounded":false)"), std::string::npos) << lines[3];

  // A bad option is a per-request error response, not a process exit.
  const std::string bad =
      "{\"id\":1,\"type\":\"open_session\",\"session\":\"s\",\"system\":\"" +
      io::json_escape(case_study_text()) + "\",\"options\":{\"frobnicate\":true}}\n";
  const CliRun rejected = invoke({"serve"}, bad);
  EXPECT_EQ(rejected.exit_code, 0) << rejected.err;
  EXPECT_NE(rejected.out.find(R"("status":"invalid-argument")"), std::string::npos);
  EXPECT_NE(rejected.out.find("unknown analysis option"), std::string::npos);
}

}  // namespace
}  // namespace wharf::cli
