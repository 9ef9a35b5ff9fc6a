/// \file engine.hpp
/// The unified wharf entry point: a request/response facade over the
/// whole analysis stack (TWCA latency + DMM, weakly-hard checks, path
/// composition, simulation cross-validation, priority synthesis).
///
/// An AnalysisRequest bundles a System with a set of queries; the Engine
/// answers them in an AnalysisReport with one structured, Status-carrying
/// result per query — malformed queries never throw across this
/// boundary, so batch drivers and servers need no exception handling.
///
/// Scaling levers (the reason this facade exists):
///  * batching  — run_batch() answers many requests in one call;
///  * parallelism — independent queries (chains x k-grids x systems) are
///    evaluated on a worker pool (EngineOptions::jobs), with results
///    bit-identical to sequential execution; one target's combination-
///    packing ILP is additionally split across the pool over its
///    independent subproblems;
///  * caching — every pipeline stage (interference contexts, busy
///    windows, overload artifacts, dmm(k) curves, packing-ILP
///    solutions) is cached separately in a shared ArtifactStore, keyed
///    by the model slice the stage reads and size-bounded by artifact
///    weight (EngineOptions::cache_bytes).  Near-identical systems — a
///    design-space sweep mutating one chain at a time — share every
///    artifact the mutation does not touch.  Effectiveness is
///    observable per stage via ReportDiagnostics / store_stats().
///
/// TwcaAnalyzer remains the internal engine core and stays available for
/// code that wants lower-level control (ablation studies, custom loops).

#ifndef WHARF_ENGINE_ENGINE_HPP
#define WHARF_ENGINE_ENGINE_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/path_analysis.hpp"
#include "core/twca.hpp"
#include "engine/artifact_store.hpp"
#include "engine/pipeline.hpp"
#include "engine/store_persist.hpp"
#include "search/priority_search.hpp"
#include "sim/simulator.hpp"
#include "util/status.hpp"

namespace wharf {

class Session;  // engine/session.hpp

// ---------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------

/// Worst-case latency of one chain (Theorem 2), optionally with all
/// overload chains abstracted away (the paper's "second analysis").
struct LatencyQuery {
  std::string chain;
  bool without_overload = false;
};

/// dmm(k) over a k-grid for one chain (Theorem 3).  Empty `ks` means
/// {10}.
struct DmmQuery {
  std::string chain;
  std::vector<Count> ks;
};

/// Weakly-hard (m,k) verification: does the chain miss at most m
/// deadlines in any k consecutive activations?
struct WeaklyHardQuery {
  std::string chain;
  Count m = 0;
  Count k = 10;
};

/// Discrete-event simulation of the whole system, cross-validated
/// against the analytic bounds (any violation disproves soundness and is
/// reported, never swallowed).
struct SimulationQuery {
  Time horizon = 100'000;
  std::uint64_t seed = 1;
  /// Mean extra inter-arrival gap; < 0 simulates the densest legal
  /// (greedy) arrivals instead of randomized ones.
  double extra_gap = -1.0;
  /// Window for the empirical miss-count cross-check against dmm(k).
  Count check_k = 10;
  bool cross_validate = true;
  /// Record the exact schedule (SimulationAnswer::trace) for rendering.
  bool record_trace = false;
};

/// Priority-assignment synthesis (paper Experiment 2 turned design
/// tool): search permutations for the best weakly-hard objective.
/// Candidates are scored through the engine's shared ArtifactStore
/// (search::PipelineEvaluator), so a pairwise swap re-solves only the
/// slices it changed and neighborhoods evaluate as one work-pool batch —
/// bit-identical to sequential standalone evaluation for any jobs.
struct PrioritySearchQuery {
  enum class Strategy { kRandom, kHillClimb, kExhaustive };
  Strategy strategy = Strategy::kHillClimb;
  Count k = 10;
  int budget = 200;  ///< samples (random) / improving steps per restart (climb)
  int restarts = 4;  ///< independent starting points (climb only)
  std::uint64_t seed = 1;
  /// Guard against factorial blow-up (exhaustive only).
  long long max_permutations = 50'000;
};

/// End-to-end latency of a path: an ordered sequence of distinct,
/// non-overload chains activating each other (WCL_path <= Σ WCL_i; see
/// path_analysis.hpp for the composition argument).
struct PathLatencyQuery {
  std::vector<std::string> chains;  ///< chain names, in path order
};

/// End-to-end deadline miss model of a path over a k-grid: the deadline
/// is split into per-chain budgets (explicit or proportional to the
/// standalone WCLs) and dmm_path(k) <= min(Σ dmm_i^{D_i}(k), k).
struct PathDmmQuery {
  std::vector<std::string> chains;  ///< chain names, in path order
  Time deadline = 0;                ///< end-to-end deadline (required)
  std::vector<Time> budgets;        ///< optional per-chain split (sums to deadline)
  std::vector<Count> ks;            ///< empty means {10}
};

/// Any one query the Engine (and Session) can answer.
using Query = std::variant<LatencyQuery, DmmQuery, WeaklyHardQuery, SimulationQuery,
                           PrioritySearchQuery, PathLatencyQuery, PathDmmQuery>;

/// One unit of work: a system plus the queries to answer on it.
struct AnalysisRequest {
  System system;
  TwcaOptions options = {};
  std::vector<Query> queries;

  /// The standard full-system request (what `wharf analyze` runs): for
  /// every non-overload chain a LatencyQuery with and without overload,
  /// plus a DmmQuery over `ks` (default {10}) when the chain has a
  /// deadline.
  [[nodiscard]] static AnalysisRequest standard(System system, std::vector<Count> ks = {},
                                                TwcaOptions options = {});
};

// ---------------------------------------------------------------------
// Answers
// ---------------------------------------------------------------------

/// Answer to a LatencyQuery: the chain's worst-case latency result.
struct LatencyAnswer {
  std::string chain;
  bool without_overload = false;
  LatencyResult result;
};

/// Answer to a DmmQuery: the dmm(k) curve over the requested k-grid.
struct DmmAnswer {
  std::string chain;
  std::vector<DmmResult> curve;  ///< one entry per requested k, in order
};

/// Answer to a WeaklyHardQuery: dmm(k) compared against the m bound.
struct WeaklyHardAnswer {
  std::string chain;
  Count m = 0;
  Count k = 0;
  Count dmm = 0;
  DmmStatus dmm_status = DmmStatus::kNoGuarantee;
  bool satisfied = false;
};

/// Answer to a SimulationQuery: observed per-chain statistics plus the
/// outcome of the analytic cross-validation.
struct SimulationAnswer {
  /// Observed statistics of one chain over the simulated horizon.
  struct ChainStats {
    std::string chain;
    Count completed = 0;
    Time max_latency = 0;
    Count miss_count = 0;
    Count max_window_misses = 0;  ///< max misses in any check_k window
  };
  std::vector<ChainStats> chains;  ///< indexed like System::chains()
  Time makespan = 0;
  /// Soundness violations found by the cross-check (must stay empty).
  std::vector<std::string> violations;
  bool validated = false;  ///< cross_validate ran and found no violation
  /// Exact schedule when SimulationQuery::record_trace (not in JSON).
  std::vector<sim::ExecSlice> trace;
};

/// Answer to a PrioritySearchQuery: the best assignment found and the
/// store reuse accumulated while scoring candidates.
struct SearchAnswer {
  search::Objective nominal;  ///< objective of the given assignment
  search::SearchResult result;
  /// Store reuse while scoring candidates (includes the nominal
  /// evaluation): per-stage lookups/hits/misses/shared of the search's
  /// pipeline-backed evaluator.
  search::EvaluatorStats stats;
};

/// Answer to a PathLatencyQuery: the composed end-to-end latency bound.
struct PathLatencyAnswer {
  std::vector<std::string> chains;
  PathLatencyResult result;
};

/// Answer to a PathDmmQuery: the composed dmm_path(k) curve.
struct PathDmmAnswer {
  std::vector<std::string> chains;
  std::vector<PathDmmResult> curve;  ///< one entry per requested k, in order
};

/// Outcome of one query: an OK status with an answer, or an error status
/// (unknown chain, invalid arguments, resource caps) with no answer.
struct QueryResult {
  Status status;
  std::variant<std::monostate, LatencyAnswer, DmmAnswer, WeaklyHardAnswer, SimulationAnswer,
               SearchAnswer, PathLatencyAnswer, PathDmmAnswer>
      answer;

  /// True iff the query succeeded (an answer alternative is set).
  [[nodiscard]] bool ok() const { return status.is_ok(); }
};

/// Cache/runtime observability for one served request.
struct ReportDiagnostics {
  /// FNV-1a content hash of the serialized system + analysis options —
  /// the whole-request fingerprint (stage artifacts key on finer model
  /// slices; see core/model_slice.hpp).
  std::uint64_t system_hash = 0;
  /// Derived convenience bool: the request resolved at least one
  /// artifact and every store lookup hit.
  bool cache_hit = false;
  /// Real store lookups this request performed, summed over stages (one
  /// lookup per distinct artifact needed).  A lookup counts as a hit
  /// only when the artifact was resident before this request's epoch
  /// (see artifact_store.hpp); hits are deterministic for any jobs
  /// value, and so is misses + shared (see pipeline.hpp).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Lookups that joined another request's in-flight computation
  /// (store-level single-flight) instead of recomputing.
  std::size_t cache_shared = 0;
  std::size_t queries_failed = 0;
  /// Per-stage lookup/hit/miss/weight breakdown of this request.
  StageCounters stages{};
  /// Search-layer telemetry, summed over this request's priority-search
  /// queries (candidate evaluations score in per-candidate epochs, so
  /// their reuse is tracked here instead of in `stages`).
  long long search_evaluations = 0;
  std::size_t search_hits = 0;
  std::size_t search_misses = 0;
  std::size_t search_shared = 0;
};

/// The response: one QueryResult per request query, index-aligned.
struct AnalysisReport {
  std::string system;  ///< System::name() of the analyzed system
  std::vector<QueryResult> results;
  ReportDiagnostics diagnostics;

  /// True iff every query succeeded.
  [[nodiscard]] bool ok() const;

  /// The most severe outcome for exit-code mapping: the first query
  /// error if any; else kNoGuarantee when any DMM-carrying answer holds
  /// DmmStatus::kNoGuarantee; else OK.
  [[nodiscard]] Status worst_status() const;
};

/// Serializes a report (results + diagnostics) as JSON.  Deterministic:
/// equal reports serialize identically regardless of the jobs knob.
[[nodiscard]] std::string to_json(const AnalysisReport& report);

/// Serializes one result exactly as it appears inside a report's
/// "results" array — the streaming serve path emits per-result frames
/// that are bit-identical to the corresponding monolithic report entry.
[[nodiscard]] std::string to_json(const QueryResult& result);

/// Serializes the diagnostics object exactly as it appears inside a
/// report (the streaming terminal-summary frame embeds it verbatim).
[[nodiscard]] std::string to_json(const ReportDiagnostics& diagnostics);

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// Construction-time knobs of an Engine (immutable afterwards).
struct EngineOptions {
  /// Worker threads for query evaluation and the intra-ILP split;
  /// 1 = sequential, 0 = all hardware threads.
  int jobs = 1;
  /// Artifact-store weight budget in bytes (admission and LRU eviction
  /// are by measured artifact weight; 0 = unlimited).
  std::size_t cache_bytes = ArtifactStore::kDefaultByteBudget;
  /// Directory of the persistent artifact snapshot: the engine loads
  /// `store_dir/wharf_store.snapshot` at construction (corrupt or
  /// missing files degrade to a cold start, never an error) and
  /// persist() spills back to it.  Empty = no persistence.
  std::string store_dir{};
  /// Periodic persist-on-idle interval in milliseconds (0 = off, and
  /// always off when store_dir is empty).  When set, a background thread
  /// re-spills the snapshot whenever new artifacts were inserted since
  /// the last save, so a process killed without a graceful shutdown
  /// (SIGKILL'ed sweep worker, OOM) still leaves a warm snapshot behind.
  /// Each save is the same atomic write-temp-then-rename as persist() —
  /// a kill mid-save can never corrupt the previous snapshot.
  long long persist_interval_ms = 0;
};

/// The facade.  Thread-safe: run()/run_batch()/open_session() and the
/// stats accessors may be called from concurrent threads — `wharf
/// serve` opens one session per client connection against a single
/// shared Engine, and identical concurrent lookups coalesce through the
/// store's single-flight table.  The sessions handed out are themselves
/// externally synchronized (see engine/session.hpp); the artifact cache
/// persists across calls and connections.
class Engine {
 public:
  /// Builds an engine (worker pool width + artifact-store budget).
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(Engine&&) noexcept;
  Engine& operator=(Engine&&) noexcept;

  /// The options the engine was built with.
  [[nodiscard]] const EngineOptions& options() const;

  /// Opens a long-lived session on this engine's shared ArtifactStore:
  /// the stateful API for design-space sweeps — apply typed Deltas,
  /// query incrementally (see engine/session.hpp).  The session must
  /// not outlive the engine.  Thread-safe; the *returned session* is
  /// single-caller (externally synchronized).
  [[nodiscard]] Session open_session(System system, TwcaOptions options = {});

  /// Answers one request.  A thin one-shot adapter over an ephemeral
  /// Session: open, serve every query, close — so the request/response
  /// surface and the session surface provably share one execution path
  /// (bit-identical results for any jobs/cache_bytes).
  [[nodiscard]] AnalysisReport run(const AnalysisRequest& request);

  /// Answers many requests, evaluating all queries of all requests on
  /// the worker pool.  reports[i] answers requests[i]; every report's
  /// *answers* are bit-identical to what sequential execution produces.
  /// Cache telemetry (ReportDiagnostics stage counters) is demand-driven
  /// and may differ with scheduling when sibling requests of one batch
  /// race on shared artifacts; within run() it is deterministic.
  [[nodiscard]] std::vector<AnalysisReport> run_batch(
      const std::vector<AnalysisRequest>& requests);

  /// Full per-stage store statistics (insertions, evictions, admission
  /// rejections, single-flight joins, residency).  Thread-safe.
  [[nodiscard]] ArtifactStore::Stats store_stats() const;

  /// What the startup snapshot load found (zeros when store_dir is
  /// empty or the file was absent).  Immutable after construction.
  struct PersistenceStats {
    /// Artifacts restored from the snapshot at construction.
    std::size_t persisted_artifacts = 0;
    /// Records skipped because the snapshot was corrupt, truncated, or
    /// version-mismatched (the engine started cold instead).
    std::size_t load_skipped_corrupt = 0;
    /// Why the load fell back cold ("" when it didn't).
    std::string load_reason;
  };
  /// The startup-load outcome for diagnostics surfaces.  Thread-safe.
  [[nodiscard]] const PersistenceStats& persistence_stats() const;

  /// Spills the store to `store_dir` (no-op OK result when store_dir is
  /// empty).  Atomic: a failure leaves any previous snapshot intact.
  /// Thread-safe, but artifacts inserted concurrently may miss the cut.
  [[nodiscard]] StoreSaveResult persist() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wharf

#endif  // WHARF_ENGINE_ENGINE_HPP
