/// \file coordinator.hpp
/// The sharded-sweep coordinator: drives a pool of `wharf serve` worker
/// processes through the NDJSON `evaluate` request and merges their
/// per-candidate objectives into one SearchResult.
///
/// Topology: one single-threaded, reactor-driven coordinator; N workers
/// reached through WorkerLink (spawned `<binary> serve` children over a
/// socketpair, or TCP connections to `wharf serve --listen` peers).
/// Each worker opens one session on the swept base system and scores
/// WorkUnits — contiguous slices of the global candidate list.
///
/// Scheduling: every worker holds a bounded window of outstanding
/// units.  When the pending queue drains, an idle worker *steals* — the
/// lowest incomplete unit gets a duplicate issue (at most two live
/// copies), so one laggard cannot stall the tail of the sweep.  A unit
/// unanswered past `unit_deadline_ms` is re-queued the same way.
///
/// Fault model: a worker may crash mid-unit (SIGKILL), hang, answer
/// with a protocol/evaluation error envelope, or lose its connection —
/// injectable deterministically via FaultInjection for the test
/// battery.  Crashed/disconnected workers are restarted (bounded by
/// `max_restarts`) against the same --store-dir, so they resume warm
/// from the periodic snapshot; their outstanding units re-issue.  A
/// protocol fault disqualifies the worker outright (no restart — the
/// process is alive but unusable for this sweep): an error envelope, a
/// response line over the wire bound (io::kMaxWireLineBytes), an
/// unparsable line, an unknown unit id, or an objective count that
/// does not match the unit.
///
/// Determinism contract: objectives are pure functions of the
/// candidate, units are deduped by id (first result wins, duplicates
/// discarded), and the merge folds the complete objective table in
/// global candidate order (dist::merge_objectives).  The merged
/// SearchResult is therefore bit-identical to a 1-worker run — and to
/// the in-process search — for any worker count, any steal/re-issue
/// history, and any kill schedule that leaves the sweep completable.

#ifndef WHARF_DIST_COORDINATOR_HPP
#define WHARF_DIST_COORDINATOR_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/system.hpp"
#include "core/twca.hpp"
#include "dist/client.hpp"
#include "search/priority_search.hpp"
#include "util/status.hpp"

namespace wharf::dist {

/// One deterministic scripted fault: once `after_units` units have
/// completed, worker `worker` is injured.  The test battery schedules
/// these to prove the merged result survives crashes bit-identically.
struct FaultInjection {
  /// What happens to the worker.
  enum class Kind {
    kKillWorker,      ///< SIGKILL a spawned worker (crash mid-unit; no-op for TCP peers)
    kDropConnection,  ///< coordinator-side close of the link (either mode)
  };
  Kind kind = Kind::kDropConnection;  ///< which injury
  int worker = 0;                     ///< index into the worker list
  std::uint64_t after_units = 0;      ///< fire once this many units completed
};

/// Sweep scheduling knobs (the candidate list and worker topology are
/// run_sweep arguments).
struct SweepOptions {
  Count k = 10;                    ///< dmm horizon of the objective
  std::size_t unit_size = 0;       ///< candidates per unit (0 = default_unit_size)
  int window = 2;                  ///< outstanding units per worker
  long long unit_deadline_ms = 0;  ///< re-queue a unit unanswered this long (0 = never)
  int max_restarts = 3;            ///< respawn/reconnect budget per worker
  std::vector<FaultInjection> faults;  ///< scripted faults (tests), in firing order
};

/// What the scheduler did — the observability surface the bench gates
/// on (stolen/reissued counts) and the fault tests assert against.
struct SweepTelemetry {
  int workers = 0;                   ///< configured worker count
  std::uint64_t units = 0;           ///< planned units (nominal included)
  long long stolen_units = 0;        ///< duplicate issues to idle workers
  long long reissued_units = 0;      ///< deadline-driven re-queues
  long long duplicate_results = 0;   ///< responses discarded by first-result-wins
  long long worker_deaths = 0;       ///< EOF/EPIPE/kill/disconnect events
  long long worker_restarts = 0;     ///< successful respawns/reconnects
  long long protocol_errors = 0;     ///< protocol faults (each disqualifies a worker)
};

/// A completed sweep: the nominal assignment's objective, the merged
/// search result (bit-identical to the sequential fold), and what the
/// scheduler did along the way.
struct SweepOutcome {
  search::Objective nominal;     ///< score of the base system's own priorities
  search::SearchResult result;   ///< best candidate, objective, evaluation count
  SweepTelemetry telemetry;      ///< scheduling/fault observability
};

/// Runs one distributed sweep of `candidates` (flat task order — from
/// search::exhaustive_candidates / random_candidates) over `workers`.
/// Blocks until every unit completed or the sweep became uncompletable
/// (every worker dead/disqualified with units outstanding — that comes
/// back as a non-OK Status, resource_exhausted).  Spawned workers are
/// always reaped before returning, whatever the outcome.
[[nodiscard]] Expected<SweepOutcome> run_sweep(const System& base, const TwcaOptions& options,
                                               const std::vector<std::vector<Priority>>& candidates,
                                               const std::vector<WorkerSpec>& workers,
                                               const SweepOptions& sweep = {});

}  // namespace wharf::dist

#endif  // WHARF_DIST_COORDINATOR_HPP
