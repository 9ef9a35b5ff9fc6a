/// \file session.hpp
/// Long-lived, incrementally mutable analysis sessions — the stateful
/// core of the wharf Engine API.
///
/// A Session is opened from a System (Engine::open_session, or directly
/// against an ArtifactStore) and then *kept*: clients sweeping a design
/// space (the paper's Fig. 5 / priority-search workload, SAW-style
/// interactive tooling) apply typed Deltas instead of re-shipping whole
/// systems, and query the mutated model through the same query kinds
/// Engine::run answers.  Incrementality is API semantics, not a cache
/// accident: a delta re-keys only the model slices it touches, so after
/// a pairwise priority swap on an m-chain system a query re-solves ~2 of
/// m busy windows — the store proves it via the per-stage telemetry in
/// SessionStats.
///
/// Contracts:
///  * apply() is atomic per batch — every delta validates against the
///    model the batch started from, and the first error leaves the
///    session untouched (Status out, never an exception);
///  * query answers are bit-identical to a one-shot
///    Engine::run of the mutated system, for any jobs value and
///    any cache budget (Engine::run itself is a thin adapter over an
///    ephemeral Session);
///  * **external synchronization required**: a Session is a
///    single-caller object.  One thread (or one externally locked
///    caller chain) drives apply()/serve()/query(); no member may be
///    invoked concurrently with another on the same session, stats()
///    included.  The parallelism happens *inside* (serve() spreads
///    queries over the worker pool) and *between* sessions: distinct
///    sessions of one Engine — each `wharf serve` connection's, every
///    speculate() candidate — may run concurrently without any locking,
///    sharing artifacts through the store's thread-safe single-flight
///    resolve.  That is how the search evaluator scores whole
///    neighborhoods in parallel and how the concurrent server isolates
///    clients.
///
/// The epoch/key plumbing: each session revision owns a store epoch —
/// opening a session, each applied batch and each speculate() child
/// begin one — and a lookup is a *hit* when the artifact was resident
/// before this revision began, so the per-stage counters read as "what
/// this revision reused vs. re-solved".  Each session holds an immutable
/// per-model digest table (ModelDigests, core/model_slice.hpp) its stage
/// keys are built from.  A priority-only apply() or speculate() derives
/// the new table from the current one, recomputing only the digests the
/// moved priorities can change; a structural delta (anything except
/// SetPriority) rebuilds it.  Nothing is memoized across tables, so a
/// session's key state is O(m²) digests whatever it has served.
///
/// A session also owns one flat ArrivalTable per chain (ArrivalTables,
/// core/interference.hpp), which every interference context it builds
/// references instead of building private copies.  Priority-only
/// children and budgeted path sub-pipelines share the set; a
/// structural delta rebuilds only the tables of chains whose arrival
/// model it replaced.  The set lives as long as the lineage's sessions
/// and the stored contexts that reference it, never longer.

#ifndef WHARF_ENGINE_SESSION_HPP
#define WHARF_ENGINE_SESSION_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/chain.hpp"
#include "core/model_slice.hpp"
#include "engine/engine.hpp"

namespace wharf {

// ---------------------------------------------------------------------
// Deltas
// ---------------------------------------------------------------------

/// Re-prioritizes one task ("chain.task" dotted name; names containing
/// dots are handled by trying every split — a reference resolving to
/// more than one task is refused, never guessed).  Batch several to
/// express a swap — priority uniqueness is validated once per batch, so
/// transient duplicates inside a batch are fine.
struct SetPriorityDelta {
  std::string task;  ///< dotted "chain.task" name
  Priority priority = 0;
};

/// Replaces one task's WCET.
struct SetWcetDelta {
  std::string task;  ///< dotted "chain.task" name
  Time wcet = 0;
};

/// Replaces (or removes, via nullopt) one chain's end-to-end deadline.
struct SetDeadlineDelta {
  std::string chain;
  std::optional<Time> deadline;
};

/// Replaces one chain's activation model (wharf::parse_arrival syntax,
/// e.g. "periodic(200)" or "sporadic(700)").
struct SetArrivalDelta {
  std::string chain;
  std::string arrival;
};

/// Appends a chain to the system (io::parse_chain builds one from the
/// text format).  Validated like any system construction: unique chain
/// name, globally unique priorities.
struct AddChainDelta {
  Chain chain;
};

/// Removes a chain by name.  Later queries naming it fail with
/// kNotFound; the system must keep at least one chain.
struct RemoveChainDelta {
  std::string chain;
};

/// Any one typed model mutation a session batch can carry.
using Delta = std::variant<SetPriorityDelta, SetWcetDelta, SetDeadlineDelta, SetArrivalDelta,
                           AddChainDelta, RemoveChainDelta>;

/// True for every delta kind that changes structural model content
/// (anything except SetPriority) — these rebuild the session's digest
/// table; priority deltas derive it incrementally.
[[nodiscard]] bool is_structural(const Delta& delta);

// ---------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------

/// Lifetime telemetry of one session: how many delta batches and queries
/// it served and how the shared store answered its stage lookups.  The
/// store counters are the incrementality proof — on a mutation sweep the
/// busy-window misses stay near "slices touched", far below
/// "revisions x targets".
struct SessionStats {
  std::uint64_t revision = 0;       ///< applied delta batches
  long long deltas_applied = 0;     ///< individual deltas across batches
  long long queries_served = 0;     ///< queries answered (query/serve/execute)
  /// Store lookups per stage (total() sums them).
  StageCounters stages{};
  /// Digest-table reuse: digests carried over from a parent table
  /// (hits) vs. computed afresh (misses), over the session's table
  /// build and every apply().
  DigestStats slices;
};

// ---------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------

/// One long-lived, incrementally mutable analysis conversation.
/// Externally synchronized (single caller; see the file comment) —
/// distinct sessions are fully independent and may run concurrently.
class Session {
 public:
  /// Opens a session on `store` (which must outlive it).  Begins a fresh
  /// store epoch.  `jobs` sizes serve() parallelism across queries and
  /// candidate scoring (a lone priority-search query,
  /// evaluate_candidates()); 1 = sequential, 0 = all hardware threads.
  Session(System system, TwcaOptions options, ArtifactStore& store, int jobs = 1);

  ~Session();
  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;

  /// The current model.  The reference is invalidated by the next
  /// successful apply() (the session swaps in the rebuilt system).
  [[nodiscard]] const System& system() const;
  [[nodiscard]] const TwcaOptions& options() const;
  [[nodiscard]] std::uint64_t revision() const;

  /// Applies a delta batch atomically: all deltas are validated and
  /// applied against the current model in order, the rebuilt system is
  /// re-validated (priority uniqueness etc.), and only then does the
  /// session advance — a new revision, a new store epoch, a digest table
  /// rebuilt (structural batch) or derived (priority-only batch).  Any error returns a
  /// non-OK Status and leaves the session exactly as it was.
  Status apply(const std::vector<Delta>& deltas);

  /// A hypothetical session: the current model plus `deltas`, sharing
  /// this session's store (own epoch).  A priority-only batch resolves
  /// to a flat priority vector and takes the speculate(priorities) path:
  /// its digest table derives from this session's, so the key cost is
  /// O(moved chains × m), and it shares this session's arrival tables.
  /// A structural batch rebuilds the digests and the tables of the
  /// chains whose arrival model changed.  Throws on invalid deltas;
  /// `jobs` < 0 inherits this session's.
  [[nodiscard]] Session speculate(const std::vector<Delta>& deltas, int jobs = -1) const;

  /// A hypothetical session of the current model with every task
  /// priority replaced (flat task order, System::with_priorities; throws
  /// its errors).  The candidate shares the store (own epoch) and the
  /// arrival tables, and derives its digest table from this session's.
  /// This is how the search evaluator scores a candidate.
  [[nodiscard]] Session speculate(const std::vector<Priority>& priorities, int jobs = -1) const;

  /// Answers one query on the current model (same kinds and the same
  /// Status-not-exception contract as Engine::run).
  [[nodiscard]] QueryResult query(const Query& query);

  /// Answers a query batch on the worker pool and bundles it as an
  /// AnalysisReport whose diagnostics cover exactly this call.
  [[nodiscard]] AnalysisReport serve(const std::vector<Query>& queries);

  /// The two halves of serve(), for callers that drive queries one at a
  /// time: execute() answers one query (`concurrent_tasks` = how many
  /// query tasks the caller runs concurrently overall; a search query
  /// fans out over `jobs` only when it is alone), collect() bundles
  /// previously produced results with the store telemetry accumulated
  /// since the last collect()/construction.
  [[nodiscard]] QueryResult execute(const Query& query, std::size_t concurrent_tasks);
  [[nodiscard]] AnalysisReport collect(std::vector<QueryResult> results);

  /// Typed single-stage accessors for programmatic loops (the search
  /// evaluator scores candidates through these).  Core exception
  /// contract: malformed arguments throw like TwcaAnalyzer.
  [[nodiscard]] LatencyResult latency(int chain, bool without_overload = false);
  [[nodiscard]] DmmResult dmm(int chain, Count k);

  /// Scores a batch of candidate priority assignments (flat task order,
  /// applied via System::with_priorities) against this session's store —
  /// the worker half of the distributed sweep's `evaluate` request.
  /// Index-aligned with `candidates`; objectives are pure functions of
  /// the candidate, so equal inputs yield bit-equal outputs on any
  /// worker, warm or cold.  Throws (core contract) on wrong-arity or
  /// non-permutation candidates — the protocol layer captures that into
  /// an error envelope.
  [[nodiscard]] std::vector<search::Objective> evaluate_candidates(
      const std::vector<std::vector<Priority>>& candidates, Count k);

  /// Whole-request fingerprint of the current model + options (the
  /// ReportDiagnostics::system_hash of reports served at this revision).
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Lifetime telemetry snapshot (revision, deltas, store counters).
  [[nodiscard]] SessionStats stats() const;

  /// The digest table of the current model, which every stage key of
  /// this revision is built from (invalidated like system()).
  [[nodiscard]] const ModelDigests& digests() const;

  /// The flat arrival table of each chain of the current model
  /// (index-aligned with system().chains(); invalidated like system()).
  /// Every interference context this session builds references these
  /// tables.  The session's priority-only children share the same set,
  /// and so do its path queries' budgeted sub-pipelines.
  [[nodiscard]] const ArrivalTables& arrival_tables() const;

 private:
  /// Delegation target of the public constructor and speculate(): begins
  /// a store epoch; a null `digests` means a table built from `system`,
  /// null `tables` a set built from it.
  Session(System system, TwcaOptions options, ArtifactStore& store, int jobs,
          std::shared_ptr<const ModelDigests> digests,
          std::shared_ptr<const ArrivalTables> tables);

  /// The priority-only child over `candidate` (this model with other
  /// priorities): derived digests, shared tables, a new store epoch.
  [[nodiscard]] Session derive(System candidate, int jobs) const;

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wharf

#endif  // WHARF_ENGINE_SESSION_HPP
