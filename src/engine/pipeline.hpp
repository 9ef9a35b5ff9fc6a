/// \file pipeline.hpp
/// The staged evaluation pipeline of wharf::Engine: per-request glue
/// between the core stage-boundary functions (core/twca.hpp,
/// core/path_analysis.hpp) and the shared ArtifactStore.
///
/// A Pipeline is created per served request.  Every stage accessor
/// resolves its artifact in three steps: a request-local memo (so one
/// request never looks the same key up twice, and concurrent queries of
/// one request wait instead of duplicating work), then the shared store
/// via its single-flight resolve() (keyed by the stage's model slice;
/// concurrent *requests* — batch siblings, search candidates — needing
/// the same absent artifact share one computation), then the core
/// computation — whose upstream inputs go through the same resolution
/// recursively.  Stage keys are 128-bit digests built from the session's
/// per-model digest table (core/model_slice.hpp).  The packing-ILP solve
/// is intercepted the same way and split across the worker pool
/// (ilp::solve_packing_split).
///
/// Path queries run through the same machinery: each per-chain budgeted
/// dmm spawns a sub-pipeline over System::with_deadline that shares the
/// store and this request's diagnostics, so path analyses reuse (and
/// populate) the very artifacts plain latency/dmm queries use.

#ifndef WHARF_ENGINE_PIPELINE_HPP
#define WHARF_ENGINE_PIPELINE_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/path_analysis.hpp"
#include "core/twca.hpp"
#include "engine/artifact_store.hpp"

namespace wharf {

/// Store telemetry of one served request, per pipeline stage.  A request
/// counts one lookup per distinct artifact it resolves, and
/// lookups == hits + misses + shared.  Hits (artifact resident before
/// the request's epoch began, see artifact_store.hpp) are deterministic
/// for any jobs value; so is misses + shared, but the split between the
/// two is not: a `shared` lookup joined a computation another thread had
/// in flight (store-level single-flight), which in a sequential run
/// would have been a plain miss.  Within run() of a request without
/// concurrent siblings, shared is zero and every counter is exactly
/// reproducible.
struct StageDiagnostics {
  std::size_t lookups = 0;         ///< distinct artifacts resolved
  std::size_t hits = 0;            ///< resident before this request's epoch
  std::size_t misses = 0;          ///< computed here (or inserted this epoch)
  std::size_t shared = 0;          ///< joined another caller's in-flight compute
  std::size_t bytes_inserted = 0;  ///< weight of artifacts this request computed
};

/// One StageDiagnostics per artifact stage, indexed by ArtifactStage:
/// the shape of every per-stage counter set (reports, sessions,
/// evaluators).
using StageCounters = std::array<StageDiagnostics, kArtifactStageCount>;

/// Stage-wise sum of two counter sets, every field.
[[nodiscard]] StageCounters add(const StageCounters& a, const StageCounters& b);

/// Stage-wise difference `a - b`; `b` is an earlier snapshot of `a`.
[[nodiscard]] StageCounters sub(const StageCounters& a, const StageCounters& b);

/// Every stage's counters summed into one.
[[nodiscard]] StageDiagnostics total(const StageCounters& stages);

/// Per-request staged evaluator.  Thread-safe: the engine calls stage
/// accessors concurrently from its worker pool.
class Pipeline {
 public:
  /// `system` and `store` must outlive the pipeline; `epoch` is the
  /// request's store epoch; `jobs` sizes the intra-ILP split;
  /// `digests` is the digest table of `system` (sessions share theirs,
  /// derived incrementally across priority deltas).
  Pipeline(const System& system, const TwcaOptions& options, ArtifactStore& store,
           std::uint64_t epoch, int jobs, std::shared_ptr<const ModelDigests> digests);
  ~Pipeline();

  Pipeline(Pipeline&&) noexcept;
  Pipeline& operator=(Pipeline&&) = delete;

  /// The system this pipeline analyzes (borrowed; see the constructor).
  [[nodiscard]] const System& system() const;

  /// Stage 1: interference context of `target` (Defs 2-5).
  [[nodiscard]] std::shared_ptr<const InterferenceContext> interference(int target);

  /// Stage 2: busy-window/latency results (Thm 1/2), full and
  /// overload-free variants.
  [[nodiscard]] std::shared_ptr<const LatencyResult> latency(int target);
  [[nodiscard]] std::shared_ptr<const LatencyResult> latency_without_overload(int target);

  /// Stage 3: k-independent overload artifacts of `target`.
  [[nodiscard]] std::shared_ptr<const TargetArtifacts> overload_artifacts(int target);

  /// Stages 4+5: dmm(k) per Theorem 3, with the packing solve cached by
  /// problem content and split across the worker pool.
  [[nodiscard]] DmmResult dmm(int target, Count k);
  [[nodiscard]] std::vector<DmmResult> dmm_curve(int target, const std::vector<Count>& ks);

  /// Path queries over the same artifacts (budgeted per-chain dmm runs
  /// in sub-pipelines sharing this request's store and diagnostics).
  [[nodiscard]] PathLatencyResult path_latency(const PathSpec& path);
  [[nodiscard]] PathDmmResult path_dmm(const PathSpec& path, Count k);

  /// Snapshot of this request's per-stage telemetry.
  [[nodiscard]] StageCounters stage_diagnostics() const;

  /// Sub-pipeline over a variant of the system with `target`'s deadline
  /// replaced (owned copy), sharing store, epoch, jobs and diagnostics
  /// with this pipeline.  Path dmm queries use it for per-chain budgets.
  /// Memoized per (target, deadline) for the pipeline's lifetime, so a
  /// k-grid over one budget resolves each artifact once.
  [[nodiscard]] Pipeline& budgeted(int target, Time deadline);

 private:
  struct Shared;
  struct State;

  Pipeline(std::shared_ptr<const System> owned, const TwcaOptions& options,
           std::shared_ptr<Shared> shared, std::shared_ptr<const ModelDigests> digests);

  std::unique_ptr<State> state_;
};

}  // namespace wharf

#endif  // WHARF_ENGINE_PIPELINE_HPP
