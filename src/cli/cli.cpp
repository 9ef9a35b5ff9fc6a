#include "cli/cli.hpp"

#include "cli/serve.hpp"

#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "core/dmm_curve.hpp"
#include "dist/client.hpp"
#include "dist/coordinator.hpp"
#include "engine/engine.hpp"
#include "engine/session.hpp"
#include "search/priority_search.hpp"
#include "io/gantt.hpp"
#include "io/json.hpp"
#include "io/report.hpp"
#include "io/system_format.hpp"
#include "io/tables.hpp"
#include "util/expect.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"

namespace wharf::cli {

namespace {

constexpr int kOk = 0;
constexpr int kUsageError = 1;
constexpr int kInputError = 2;
constexpr int kNoGuaranteeExit = 3;

const char kUsage[] = R"(wharf — weakly-hard analysis of SPP task-chain systems (DATE'17 TWCA)

usage:
  wharf analyze  <file> [--k K1,K2,...] [--json] [--jobs N] [--cache-bytes N]
                 [--store-dir DIR]
  wharf dmm      <file> <chain> [--k K] [--breakpoints KMAX] [--json]
  wharf path     <file> <chain1,chain2,...> [--deadline D] [--budgets B1,B2,...]
                 [--k K1,K2,...] [--json] [--jobs N]
  wharf simulate <file> [--horizon H] [--seed S] [--extra-gap G] [--gantt WIDTH]
  wharf search   <file> [--k K] [--strategy hill|random|exhaustive] [--budget N]
                 [--restarts R] [--max-permutations N] [--seed S] [--json]
                 [--jobs N] [--cache-bytes N] [--store-dir DIR]
  wharf sweep    <file> [--k K] [--strategy exhaustive|random] [--budget N]
                 [--seed S] [--max-permutations N]
                 [--workers N | --connect host:port,...] [--unit-size N]
                 [--window N] [--unit-deadline-ms MS] [--max-restarts N]
                 [--jobs N] [--store-dir DIR] [--json]
  wharf serve    [--jobs N] [--cache-bytes N] [--store-dir DIR]
                 [--persist-interval MS] [--listen PORT] [--max-connections N]
  wharf validate <file>
  wharf help

<file> is a system description (see io/system_format.hpp); '-' reads stdin.
any subcommand accepts --help (print this text, exit 0).
a flag its usage line above does not list is a usage error (exit 1).
--store-dir DIR persists the artifact store across runs: analysis
artifacts load from DIR/wharf_store.snapshot at startup and spill back
on clean exit, so repeat invocations start warm.  Corrupt or
version-mismatched snapshots fall back to a cold start (never an error).
exit codes: 0 ok; 1 usage error; 2 input error; 3 analysis gave no guarantee.

serve: a long-lived NDJSON request/response loop over stdin/stdout, or a
127.0.0.1 TCP socket with --listen (port 0 picks one) serving multiple
concurrent connections from one event-driven reactor thread, with request
work on a worker pool; --max-connections is the global budget of requests
in flight across all connections (default: hardware threads), and every
connection shares one engine and artifact store — speaking {open_session,
apply_delta, query, diagnostics, close, shutdown} against incremental
analysis sessions (spec: docs/serve-protocol.md).
serve exit codes: 0 clean shutdown or EOF; 1 usage error; 4 transport failure
(cannot bind/listen/accept, or broken stdio output).
Per-request errors (malformed JSON, unknown session, bad delta/query)
are JSON error responses on the stream, and one client's transport
failure ends only that connection: neither ever exits the server.
--persist-interval MS re-snapshots the store to --store-dir every MS ms
while it has new artifacts (default 200 when --store-dir is set; 0
disables), so even a killed server leaves a warm snapshot behind.

sweep: the distributed form of `search --strategy exhaustive|random`:
shards the candidate permutations over --workers spawned `wharf serve`
processes (or over already-running `wharf serve --listen` peers via
--connect), keeps --window units outstanding per worker, steals work
from laggards, re-issues units lost to crashed, hung (--unit-deadline-ms)
or disconnected workers, and merges deterministically — the result is
bit-identical to `wharf search` and to a 1-worker sweep for any worker
count and any fault history (spec: docs/distributed.md).  --store-dir
DIR gives spawned worker i the snapshot family DIR/worker-<i>, so a
respawned worker starts warm from its periodic snapshot; --jobs is the
per-worker thread count.
)";

/// Parsed --key value / --flag options plus positional arguments.
struct Options {
  std::vector<std::string> positional;
  std::map<std::string, std::string> values;
  bool has(const std::string& key) const { return values.count(key) != 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

/// The flags one subcommand accepts: `valued` ones take the next
/// argument as their value, `bare` ones stand alone.
struct FlagSet {
  std::set<std::string> valued;
  std::set<std::string> bare;
};

/// Every subcommand's flags, exactly what its cmd_* reads (and kUsage
/// lists).  Any other --flag is a usage error.
const std::map<std::string, FlagSet>& subcommand_flags() {
  static const std::map<std::string, FlagSet> flags = {
      {"analyze", {{"--k", "--jobs", "--cache-bytes", "--store-dir"}, {"--json"}}},
      {"dmm", {{"--k", "--breakpoints"}, {"--json"}}},
      {"path", {{"--deadline", "--budgets", "--k", "--jobs"}, {"--json"}}},
      {"simulate", {{"--horizon", "--seed", "--extra-gap", "--gantt"}, {}}},
      {"search",
       {{"--k", "--strategy", "--budget", "--restarts", "--max-permutations", "--seed", "--jobs",
         "--cache-bytes", "--store-dir"},
        {"--json"}}},
      {"sweep",
       {{"--k", "--strategy", "--budget", "--seed", "--max-permutations", "--workers",
         "--connect", "--unit-size", "--window", "--unit-deadline-ms", "--max-restarts",
         "--jobs", "--store-dir"},
        {"--json"}}},
      {"serve",
       {{"--jobs", "--cache-bytes", "--store-dir", "--persist-interval", "--listen",
         "--max-connections"},
        {}}},
      {"validate", {}},
  };
  return flags;
}

bool parse_options(const std::vector<std::string>& args, const std::string& command,
                   const FlagSet& flags, Options& out, std::ostream& err) {
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (!util::starts_with(a, "--")) {
      out.positional.push_back(a);
    } else if (flags.valued.count(a) != 0) {
      if (i + 1 >= args.size()) {
        err << "missing value for " << a << "\n";
        return false;
      }
      out.values[a] = args[++i];
    } else if (flags.bare.count(a) != 0) {
      out.values[a] = "";
    } else {
      err << "unknown flag '" << a << "' for wharf " << command << " (see wharf help)\n";
      return false;
    }
  }
  return true;
}

/// Parses a decimal integer in [lo, hi] into `out`; anything else
/// (junk or out of range) prints "invalid <what>: '<text>'" and fails.
/// Every numeric flag reads through it, so none is ever truncated on
/// its way into a narrower field.
template <typename Int>
bool parse_int(const std::string& text, long long lo, Int& out, std::ostream& err,
               const std::string& what, long long hi = std::numeric_limits<Int>::max()) {
  long long v = 0;
  if (!util::parse_int64(text, v) || v < lo || v > hi) {
    err << "invalid " << what << ": '" << text << "'\n";
    return false;
  }
  out = static_cast<Int>(v);
  return true;
}

bool parse_count(const std::string& text, Count& out, std::ostream& err,
                 const std::string& what) {
  return parse_int(text, 1, out, err, what);
}

/// Parses --jobs (>= 1, or 0 for all hardware threads).
bool parse_jobs(const Options& options, int& jobs, std::ostream& err) {
  jobs = 1;
  return !options.has("--jobs") || parse_int(options.get("--jobs", ""), 0, jobs, err, "--jobs");
}

/// Parses --cache-bytes (>= 0; 0 = unlimited artifact-store budget).
bool parse_cache_bytes(const Options& options, std::size_t& bytes, std::ostream& err) {
  bytes = EngineOptions{}.cache_bytes;
  if (!options.has("--cache-bytes")) return true;
  long long v = 0;
  if (!parse_int(options.get("--cache-bytes", ""), 0, v, err, "--cache-bytes")) return false;
  bytes = static_cast<std::size_t>(v);
  return true;
}

/// Spills the engine's store back to --store-dir when one was given.
/// A failing save is a stderr warning, never an exit-code change — the
/// analysis answer was already produced; persistence only affects how
/// warm the *next* run starts.
void spill_store(Engine& engine, std::ostream& err) {
  const StoreSaveResult saved = engine.persist();
  if (!saved.status.is_ok()) {
    err << "warning: snapshot save failed: " << saved.status.message() << "\n";
  }
}

std::optional<System> load_system(const std::string& path, std::istream& in, std::ostream& err) {
  std::string text;
  if (path == "-") {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream file(path);
    if (!file) {
      err << "cannot open '" << path << "'\n";
      return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }
  const Expected<System> system = capture([&] { return io::parse_system(text); });
  if (!system) {
    err << system.status().message() << "\n";
    return std::nullopt;
  }
  return system.value();
}

std::vector<Count> parse_k_list(const std::string& text, std::ostream& err) {
  std::vector<Count> ks;
  for (const std::string& field : util::split(text, ',')) {
    Count k = 0;
    if (!parse_count(field, k, err, "k value")) return {};
    ks.push_back(k);
  }
  return ks;
}

/// Maps a report outcome onto the CLI exit-code contract.
int exit_code_for(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return kOk;
    case StatusCode::kNoGuarantee: return kNoGuaranteeExit;
    default: return kInputError;
  }
}

int cmd_analyze(const Options& options, std::istream& in, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 1) {
    err << "analyze expects exactly one file argument\n";
    return kUsageError;
  }
  const auto system = load_system(options.positional[0], in, err);
  if (!system.has_value()) return kInputError;

  std::vector<Count> ks = {10};
  if (options.has("--k")) {
    ks = parse_k_list(options.get("--k", ""), err);
    if (ks.empty()) return kUsageError;
  }
  int jobs = 1;
  if (!parse_jobs(options, jobs, err)) return kUsageError;
  std::size_t cache_bytes = 0;
  if (!parse_cache_bytes(options, cache_bytes, err)) return kUsageError;

  Engine engine{EngineOptions{jobs, cache_bytes, options.get("--store-dir", "")}};
  const AnalysisReport report = engine.run(AnalysisRequest::standard(*system, ks));
  spill_store(engine, err);

  if (options.has("--json")) {
    out << to_json(report) << "\n";
  } else {
    out << io::render_report(*system, report);
  }
  const Status status = report.worst_status();
  if (!status.is_ok() && !options.has("--json")) err << status.to_string() << "\n";
  return exit_code_for(status);
}

int cmd_dmm(const Options& options, std::istream& in, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 2) {
    err << "dmm expects <file> <chain>\n";
    return kUsageError;
  }
  const auto system = load_system(options.positional[0], in, err);
  if (!system.has_value()) return kInputError;
  const std::string& chain_name = options.positional[1];

  Count k = 10;
  if (options.has("--k") && !parse_count(options.get("--k", ""), k, err, "k")) {
    return kUsageError;
  }
  if (options.has("--json") && options.has("--breakpoints")) {
    err << "--breakpoints cannot be combined with --json (the table would corrupt the "
           "JSON stream); use --k with a grid instead\n";
    return kUsageError;
  }

  Engine engine;
  const AnalysisReport report =
      engine.run(AnalysisRequest{*system, {}, {DmmQuery{chain_name, {k}}}});
  const QueryResult& result = report.results.front();
  if (!result.ok()) {
    err << result.status.to_string() << "\n";
    return exit_code_for(result.status);
  }
  const DmmResult& r = std::get<DmmAnswer>(result.answer).curve.front();

  if (options.has("--json")) {
    out << to_json(report) << "\n";
  } else {
    out << "dmm_" << chain_name << "(" << k << ") = " << r.dmm << "  [" << to_string(r.status)
        << (r.reason.empty() ? "" : ": " + r.reason) << "]\n";
  }

  if (options.has("--breakpoints")) {
    Count k_max = 0;
    if (!parse_count(options.get("--breakpoints", ""), k_max, err, "breakpoint horizon")) {
      return kUsageError;
    }
    // The breakpoint scan probes adaptively (binary search between
    // steps) through a session on the same engine, so every probe
    // shares the point query's artifacts.  The point query already
    // resolved the chain name.
    const auto table_or = capture([&] {
      Session session = engine.open_session(*system);
      const int chain = *system->chain_index(chain_name);
      const auto dmm_at = [&](Count probe) { return session.dmm(chain, probe).dmm; };
      io::TextTable table({"first k", "dmm(k)"});
      for (const DmmBreakpoint& bp : dmm_breakpoints(dmm_at, k_max)) {
        table.add_row({util::cat(bp.k), util::cat(bp.dmm)});
      }
      return table.render();
    });
    if (!table_or) {
      err << table_or.status().message() << "\n";
      return exit_code_for(table_or.status());
    }
    out << table_or.value();
  }
  return r.status == DmmStatus::kNoGuarantee ? kNoGuaranteeExit : kOk;
}

int cmd_path(const Options& options, std::istream& in, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 2) {
    err << "path expects <file> <chain1,chain2,...>\n";
    return kUsageError;
  }
  const auto system = load_system(options.positional[0], in, err);
  if (!system.has_value()) return kInputError;
  const std::vector<std::string> chains = util::split(options.positional[1], ',');

  AnalysisRequest request{*system, {}, {PathLatencyQuery{chains}}};
  if (options.has("--deadline")) {
    PathDmmQuery dmm_query;
    dmm_query.chains = chains;
    Count deadline = 0;
    if (!parse_count(options.get("--deadline", ""), deadline, err, "deadline")) {
      return kUsageError;
    }
    dmm_query.deadline = deadline;
    if (options.has("--budgets")) {
      for (const std::string& field : util::split(options.get("--budgets", ""), ',')) {
        Count budget = 0;
        if (!parse_count(field, budget, err, "budget")) return kUsageError;
        dmm_query.budgets.push_back(budget);
      }
    }
    if (options.has("--k")) {
      dmm_query.ks = parse_k_list(options.get("--k", ""), err);
      if (dmm_query.ks.empty()) return kUsageError;
    }
    request.queries.push_back(dmm_query);
  } else if (options.has("--budgets") || options.has("--k")) {
    err << "--budgets/--k require --deadline (they parameterize the path DMM)\n";
    return kUsageError;
  }
  int jobs = 1;
  if (!parse_jobs(options, jobs, err)) return kUsageError;

  Engine engine{EngineOptions{jobs, EngineOptions{}.cache_bytes, ""}};
  const AnalysisReport report = engine.run(request);

  if (options.has("--json")) {
    // Like analyze: failed queries are structured status entries in the
    // JSON stream, never a bare stderr line with empty stdout.
    out << to_json(report) << "\n";
    return exit_code_for(report.worst_status());
  }

  for (const QueryResult& result : report.results) {
    if (!result.ok()) {
      err << result.status.to_string() << "\n";
      return exit_code_for(result.status);
    }
  }

  const auto& latency = std::get<PathLatencyAnswer>(report.results.front().answer);
  out << "path " << options.positional[1] << ": ";
  if (latency.result.bounded) {
    out << "WCL <= " << latency.result.wcl << " (per chain:";
    for (const Time t : latency.result.per_chain_wcl) out << ' ' << t;
    out << ")\n";
  } else {
    out << "unbounded: " << latency.result.reason << "\n";
  }
  if (report.results.size() > 1) {
    const auto& dmm = std::get<PathDmmAnswer>(report.results[1].answer);
    for (const PathDmmResult& r : dmm.curve) {
      out << "dmm_path(" << r.k << ") = " << r.dmm << "  [" << to_string(r.status)
          << (r.reason.empty() ? "" : ": " + r.reason) << "]\n";
    }
  }
  return exit_code_for(report.worst_status());
}

int cmd_simulate(const Options& options, std::istream& in, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 1) {
    err << "simulate expects exactly one file argument\n";
    return kUsageError;
  }
  const auto system = load_system(options.positional[0], in, err);
  if (!system.has_value()) return kInputError;

  SimulationQuery query;
  query.cross_validate = false;  // plain observation, as before
  Count horizon = 100'000;
  if (options.has("--horizon") &&
      !parse_count(options.get("--horizon", ""), horizon, err, "horizon")) {
    return kUsageError;
  }
  query.horizon = horizon;
  Count seed = 1;
  if (options.has("--seed") && !parse_count(options.get("--seed", ""), seed, err, "seed")) {
    return kUsageError;
  }
  query.seed = static_cast<std::uint64_t>(seed);
  if (options.has("--extra-gap")) {
    Count gap = 0;
    if (!parse_count(options.get("--extra-gap", ""), gap, err, "extra gap")) {
      return kUsageError;
    }
    query.extra_gap = static_cast<double>(gap);
  }
  query.record_trace = options.has("--gantt");

  Engine engine;
  const AnalysisReport report = engine.run(AnalysisRequest{*system, {}, {query}});
  const QueryResult& result = report.results.front();
  if (!result.ok()) {
    err << result.status.to_string() << "\n";
    return exit_code_for(result.status);
  }
  const SimulationAnswer& answer = std::get<SimulationAnswer>(result.answer);

  io::TextTable table({"chain", "instances", "max latency", "misses",
                       util::cat("max misses/", query.check_k)});
  for (const SimulationAnswer::ChainStats& cr : answer.chains) {
    table.add_row({cr.chain, util::cat(cr.completed), util::cat(cr.max_latency),
                   util::cat(cr.miss_count),
                   cr.completed == 0 ? "-" : util::cat(cr.max_window_misses)});
  }
  out << table.render();

  if (options.has("--gantt")) {
    Count width = 0;
    if (!parse_count(options.get("--gantt", ""), width, err, "gantt width")) {
      return kUsageError;
    }
    io::GanttOptions gantt;
    gantt.to = std::min<Time>(answer.makespan, width);
    gantt.ticks_per_char = std::max<Time>(1, gantt.to / 100);
    out << '\n' << io::render_gantt(*system, answer.trace, gantt);
  }
  return kOk;
}

/// The nominal/best/priorities text block of `search` and `sweep`.
void print_search_outcome(std::ostream& out, const search::Objective& nominal,
                          const search::SearchResult& result) {
  out << "nominal:  missing=" << nominal.chains_missing << " dmm=" << nominal.total_dmm
      << " wcl=" << nominal.total_wcl << "\n";
  out << "best:     missing=" << result.best_objective.chains_missing
      << " dmm=" << result.best_objective.total_dmm << " wcl=" << result.best_objective.total_wcl
      << "  (" << result.evaluations << " evaluations)\n";
  out << "priorities (flat task order):";
  for (const Priority p : result.best_priorities) out << ' ' << p;
  out << '\n';
}

int cmd_search(const Options& options, std::istream& in, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 1) {
    err << "search expects exactly one file argument\n";
    return kUsageError;
  }
  const auto system = load_system(options.positional[0], in, err);
  if (!system.has_value()) return kInputError;

  PrioritySearchQuery query;
  Count k = 10;
  if (options.has("--k") && !parse_count(options.get("--k", ""), k, err, "k")) {
    return kUsageError;
  }
  query.k = k;
  if (options.has("--budget") &&
      !parse_int(options.get("--budget", ""), 1, query.budget, err, "budget")) {
    return kUsageError;
  }
  Count seed = 1;
  if (options.has("--seed") && !parse_count(options.get("--seed", ""), seed, err, "seed")) {
    return kUsageError;
  }
  query.seed = static_cast<std::uint64_t>(seed);
  if (options.has("--restarts") &&
      !parse_int(options.get("--restarts", ""), 1, query.restarts, err, "restarts")) {
    return kUsageError;
  }
  Count max_permutations = 0;
  if (options.has("--max-permutations")) {
    if (!parse_count(options.get("--max-permutations", ""), max_permutations, err,
                     "max permutations")) {
      return kUsageError;
    }
    query.max_permutations = max_permutations;
  }
  const std::string strategy = options.get("--strategy", "hill");
  if (strategy == "random") {
    query.strategy = PrioritySearchQuery::Strategy::kRandom;
  } else if (strategy == "hill" || strategy == "climb") {
    query.strategy = PrioritySearchQuery::Strategy::kHillClimb;
  } else if (strategy == "exhaustive") {
    query.strategy = PrioritySearchQuery::Strategy::kExhaustive;
  } else {
    err << "unknown strategy '" << strategy << "' (use hill|random|exhaustive)\n";
    return kUsageError;
  }
  int jobs = 1;
  if (!parse_jobs(options, jobs, err)) return kUsageError;
  std::size_t cache_bytes = 0;
  if (!parse_cache_bytes(options, cache_bytes, err)) return kUsageError;

  Engine engine{EngineOptions{jobs, cache_bytes, options.get("--store-dir", "")}};
  const AnalysisReport report = engine.run(AnalysisRequest{*system, {}, {query}});
  spill_store(engine, err);
  const QueryResult& result = report.results.front();
  if (!result.ok()) {
    if (options.has("--json")) {
      out << to_json(report) << "\n";
    } else {
      err << result.status.to_string() << "\n";
    }
    return exit_code_for(result.status);
  }
  if (options.has("--json")) {
    out << to_json(report) << "\n";
    return kOk;
  }
  const SearchAnswer& answer = std::get<SearchAnswer>(result.answer);

  print_search_outcome(out, answer.nominal, answer.result);
  const StageDiagnostics store = total(answer.stats.stages);
  out << "store: " << store.hits << " hits / " << store.misses << " misses / " << store.shared
      << " shared\n";
  return kOk;
}

int cmd_sweep(const Options& options, std::istream& in, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 1) {
    err << "sweep expects exactly one file argument\n";
    return kUsageError;
  }
  const auto system = load_system(options.positional[0], in, err);
  if (!system.has_value()) return kInputError;

  Count k = 10;
  if (options.has("--k") && !parse_count(options.get("--k", ""), k, err, "k")) {
    return kUsageError;
  }
  int budget = 200;
  if (options.has("--budget") &&
      !parse_int(options.get("--budget", ""), 1, budget, err, "budget")) {
    return kUsageError;
  }
  Count seed = 1;
  if (options.has("--seed") && !parse_count(options.get("--seed", ""), seed, err, "seed")) {
    return kUsageError;
  }
  Count max_permutations = 50'000;
  if (options.has("--max-permutations") &&
      !parse_count(options.get("--max-permutations", ""), max_permutations, err,
                   "max permutations")) {
    return kUsageError;
  }
  const std::string strategy = options.get("--strategy", "exhaustive");
  if (strategy != "exhaustive" && strategy != "random") {
    err << "unknown sweep strategy '" << strategy
        << "' (use exhaustive|random; hill climbing is sequential — use `wharf search`)\n";
    return kUsageError;
  }
  int jobs = 1;
  if (!parse_jobs(options, jobs, err)) return kUsageError;

  // The candidate list is the exact enumeration `wharf search` scores —
  // that is the determinism contract the merge leans on.
  const auto candidates = capture([&] {
    return strategy == "exhaustive"
               ? search::exhaustive_candidates(*system, max_permutations)
               : search::random_candidates(*system, budget, static_cast<std::uint64_t>(seed));
  });
  if (!candidates) {
    err << candidates.status().message() << "\n";
    return kInputError;
  }

  std::vector<dist::WorkerSpec> workers;
  if (options.has("--connect")) {
    if (options.has("--workers")) {
      err << "--workers and --connect are mutually exclusive\n";
      return kUsageError;
    }
    for (const std::string& peer : util::split(options.get("--connect", ""), ',')) {
      const auto colon = peer.rfind(':');
      long long port = 0;
      if (colon == std::string::npos || colon == 0 ||
          !util::parse_int64(peer.substr(colon + 1), port) || port < 1 || port > 65535) {
        err << "invalid --connect peer '" << peer << "' (want host:port)\n";
        return kUsageError;
      }
      dist::WorkerSpec spec;
      spec.host = peer.substr(0, colon);
      spec.port = static_cast<int>(port);
      workers.push_back(std::move(spec));
    }
    if (workers.empty()) {
      err << "--connect needs at least one host:port peer\n";
      return kUsageError;
    }
  } else {
    Count worker_count = 2;
    if (options.has("--workers") &&
        !parse_count(options.get("--workers", ""), worker_count, err, "worker count")) {
      return kUsageError;
    }
    const std::string binary = dist::self_binary();
    const std::string store_dir = options.get("--store-dir", "");
    for (Count i = 0; i < worker_count; ++i) {
      dist::WorkerSpec spec;
      spec.binary = binary;
      spec.jobs = jobs;
      if (!store_dir.empty()) spec.store_dir = util::cat(store_dir, "/worker-", i);
      workers.push_back(std::move(spec));
    }
  }

  dist::SweepOptions sweep;
  sweep.k = k;
  Count value = 0;
  if (options.has("--unit-size")) {
    if (!parse_count(options.get("--unit-size", ""), value, err, "unit size")) {
      return kUsageError;
    }
    sweep.unit_size = static_cast<std::size_t>(value);
  }
  if (options.has("--window") &&
      !parse_int(options.get("--window", ""), 1, sweep.window, err, "window")) {
    return kUsageError;
  }
  if (options.has("--unit-deadline-ms")) {
    if (!parse_count(options.get("--unit-deadline-ms", ""), value, err, "unit deadline")) {
      return kUsageError;
    }
    sweep.unit_deadline_ms = value;
  }
  if (options.has("--max-restarts") &&
      !parse_int(options.get("--max-restarts", ""), 1, sweep.max_restarts, err,
                 "restart budget")) {
    return kUsageError;
  }

  const Expected<dist::SweepOutcome> outcome =
      dist::run_sweep(*system, {}, candidates.value(), workers, sweep);
  if (!outcome.has_value()) {
    err << outcome.status().to_string() << "\n";
    return exit_code_for(outcome.status());
  }
  const dist::SweepOutcome& sweep_result = outcome.value();
  const dist::SweepTelemetry& telemetry = sweep_result.telemetry;

  if (options.has("--json")) {
    io::JsonWriter w(out);
    w.begin_object();
    w.key("nominal");
    io::write_objective(w, sweep_result.nominal);
    w.key("best");
    io::write_objective(w, sweep_result.result.best_objective,
                        &sweep_result.result.best_priorities);
    w.key("evaluations");
    w.value(sweep_result.result.evaluations);
    w.key("sweep");
    w.begin_object();
    w.key("workers");
    w.value(telemetry.workers);
    w.key("units");
    w.value(static_cast<long long>(telemetry.units));
    w.key("stolen_units");
    w.value(telemetry.stolen_units);
    w.key("reissued_units");
    w.value(telemetry.reissued_units);
    w.key("duplicate_results");
    w.value(telemetry.duplicate_results);
    w.key("worker_deaths");
    w.value(telemetry.worker_deaths);
    w.key("worker_restarts");
    w.value(telemetry.worker_restarts);
    w.key("protocol_errors");
    w.value(telemetry.protocol_errors);
    w.end_object();
    w.end_object();
    out << "\n";
    return kOk;
  }

  print_search_outcome(out, sweep_result.nominal, sweep_result.result);
  out << "sweep: " << telemetry.workers << " workers, " << telemetry.units << " units, "
      << telemetry.stolen_units << " stolen, " << telemetry.reissued_units << " reissued, "
      << telemetry.duplicate_results << " duplicates, " << telemetry.worker_deaths
      << " deaths, " << telemetry.worker_restarts << " restarts\n";
  return kOk;
}

int cmd_serve_dispatch(const Options& options, std::istream& in, std::ostream& out,
                       std::ostream& err) {
  if (!options.positional.empty()) {
    err << "serve takes no positional arguments\n";
    return kUsageError;
  }
  int jobs = 1;
  if (!parse_jobs(options, jobs, err)) return kUsageError;
  std::size_t cache_bytes = 0;
  if (!parse_cache_bytes(options, cache_bytes, err)) return kUsageError;
  int listen_port = -1;
  if (options.has("--listen") &&
      !parse_int(options.get("--listen", ""), 0, listen_port, err, "--listen port", 65535)) {
    return kUsageError;
  }
  int max_connections = 0;  // 0 = hardware_concurrency
  if (options.has("--max-connections") &&
      !parse_int(options.get("--max-connections", ""), 1, max_connections, err,
                 "--max-connections")) {
    return kUsageError;
  }
  long long persist_interval_ms = -1;  // default: on (200ms) iff --store-dir
  if (options.has("--persist-interval") &&
      !parse_int(options.get("--persist-interval", ""), 0, persist_interval_ms, err,
                 "--persist-interval")) {
    return kUsageError;
  }
  return cmd_serve(jobs, cache_bytes, options.get("--store-dir", ""), persist_interval_ms,
                   listen_port, max_connections, in, out, err);
}

int cmd_validate(const Options& options, std::istream& in, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 1) {
    err << "validate expects exactly one file argument\n";
    return kUsageError;
  }
  const auto system = load_system(options.positional[0], in, err);
  if (!system.has_value()) return kInputError;
  out << "ok: system '" << system->name() << "' with " << system->size() << " chains, "
      << system->task_count() << " tasks, utilization " << system->utilization() << '\n';
  return kOk;
}

}  // namespace

int run(const std::vector<std::string>& args, std::istream& in, std::ostream& out,
        std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help" || args[0] == "-h") {
    out << kUsage;
    return args.empty() ? kUsageError : kOk;
  }
  // `wharf <subcommand> --help` prints the usage (with the exit-code
  // contract) and exits 0 — it must never run the subcommand (a serve
  // invocation would otherwise sit reading stdin).
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--help" || args[i] == "-h") {
      out << kUsage;
      return kOk;
    }
  }
  const std::string& command = args[0];
  const auto flags = subcommand_flags().find(command);
  if (flags == subcommand_flags().end()) {
    err << "unknown command '" << command << "'\n" << kUsage;
    return kUsageError;
  }
  Options options;
  if (!parse_options(args, command, flags->second, options, err)) return kUsageError;

  if (command == "analyze") return cmd_analyze(options, in, out, err);
  if (command == "dmm") return cmd_dmm(options, in, out, err);
  if (command == "path") return cmd_path(options, in, out, err);
  if (command == "simulate") return cmd_simulate(options, in, out, err);
  if (command == "search") return cmd_search(options, in, out, err);
  if (command == "sweep") return cmd_sweep(options, in, out, err);
  if (command == "serve") return cmd_serve_dispatch(options, in, out, err);
  return cmd_validate(options, in, out, err);
}

int run_main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return run(args, std::cin, std::cout, std::cerr);
}

}  // namespace wharf::cli
