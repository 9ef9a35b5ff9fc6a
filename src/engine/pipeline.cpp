#include "engine/pipeline.hpp"

#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/model_slice.hpp"
#include "engine/artifact_types.hpp"
#include "util/expect.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace wharf {

namespace {

/// Key of a packing problem's content (the ILP stage key — two targets
/// or k values yielding the same capacities and incidence share one
/// solve).
ArtifactKey packing_key(const ilp::PackingProblem& problem) {
  KeyHasher h;
  h.text("ilp").u64(problem.capacities.size());
  for (const Count c : problem.capacities) h.i64(c);
  h.u64(problem.item_resources.size());
  for (const auto& item : problem.item_resources) {
    h.u64(item.size());
    for (const int r : item) h.i64(r);
  }
  return h.finish();
}

}  // namespace

// ---------------------------------------------------------------------
// Pipeline state
// ---------------------------------------------------------------------

/// State shared between a request's root pipeline and the budgeted
/// sub-pipelines its path queries spawn: the store session and the
/// request-wide diagnostics.
struct Pipeline::Shared {
  ArtifactStore* store = nullptr;
  std::uint64_t epoch = 0;
  int jobs = 1;
  util::Mutex diag_mutex;
  StageCounters diag WHARF_GUARDED_BY(diag_mutex) = {};
};

struct Pipeline::State {
  std::shared_ptr<const System> owned;  ///< engaged for budgeted sub-pipelines
  const System* system = nullptr;
  TwcaOptions options;
  std::shared_ptr<Shared> shared;
  /// The digest table of *system (shared with the owning session; a
  /// budgeted sub-pipeline holds its own, with the target's content
  /// digest recomputed for the substituted deadline).
  std::shared_ptr<const ModelDigests> digests;

  /// Request-local memo: one cell per (stage, key); the first visitor
  /// resolves the artifact through the store's single-flight resolve()
  /// while concurrent visitors of *this request* wait on the cell
  /// instead of duplicating the lookup — which is what keeps the
  /// per-stage counters deterministic under the worker pool.
  struct Cell {
    util::Mutex mutex;
    bool done WHARF_GUARDED_BY(mutex) = false;
    std::shared_ptr<const void> value WHARF_GUARDED_BY(mutex);
    std::exception_ptr error WHARF_GUARDED_BY(mutex);
  };
  util::Mutex memo_mutex;
  std::array<std::unordered_map<ArtifactKey, std::shared_ptr<Cell>, ArtifactKey::Hash>,
             kArtifactStageCount>
      memo WHARF_GUARDED_BY(memo_mutex);

  /// Budgeted sub-pipelines, memoized per (target, deadline): a k-grid
  /// over one budget reuses the sub-pipeline's request-local memo
  /// instead of re-resolving (and re-counting) the same artifacts per k.
  util::Mutex budgeted_mutex;
  std::map<std::pair<int, Time>, std::unique_ptr<Pipeline>> budgeted_memo
      WHARF_GUARDED_BY(budgeted_mutex);

  /// Per-target stage keys, built on first use: each digests the
  /// target's column of the digest table (O(m) words), and one request
  /// reads a target's busy-window key several times.
  enum KeyKind : std::size_t { kIfcKey, kBwKey, kBwNoovKey, kOvKey, kKeyKinds };
  util::Mutex keys_mutex;
  std::vector<std::optional<ArtifactKey>> keys WHARF_GUARDED_BY(keys_mutex);

  template <typename Build>
  ArtifactKey cached_key(KeyKind kind, int target, Build&& build) WHARF_EXCLUDES(keys_mutex) {
    WHARF_EXPECT(target >= 0 && target < system->size(),
                 "chain index " << target << " out of range [0, " << system->size() << ")");
    const std::size_t slot =
        kind * static_cast<std::size_t>(system->size()) + static_cast<std::size_t>(target);
    {
      const util::MutexLock guard(keys_mutex);
      if (keys.empty()) keys.resize(kKeyKinds * static_cast<std::size_t>(system->size()));
      if (keys[slot].has_value()) return *keys[slot];
    }
    const ArtifactKey key = build();
    const util::MutexLock guard(keys_mutex);
    keys[slot] = key;
    return key;
  }

  ArtifactKey interference_key_for(int target) {
    return cached_key(kIfcKey, target,
                      [&] { return interference_key(*system, *digests, target); });
  }
  ArtifactKey busy_window_key_for(int target, bool without_overload) {
    return cached_key(without_overload ? kBwNoovKey : kBwKey, target, [&] {
      return busy_window_key(*system, *digests, target, options.analysis, without_overload);
    });
  }
  ArtifactKey overload_key_for(int target) {
    const ArtifactKey busy_part = busy_window_key_for(target, /*without_overload=*/false);
    return cached_key(kOvKey, target, [&] {
      return overload_key(*system, *digests, target, options, busy_part);
    });
  }

  template <typename T, typename Make>
  std::shared_ptr<const T> acquire(ArtifactStage stage, const ArtifactKey& key, Make&& make);
};

template <typename T, typename Make>
std::shared_ptr<const T> Pipeline::State::acquire(ArtifactStage stage, const ArtifactKey& key,
                                                  Make&& make) {
  std::shared_ptr<Cell> cell;
  {
    const util::MutexLock guard(memo_mutex);
    std::shared_ptr<Cell>& slot = memo[static_cast<std::size_t>(stage)][key];
    if (!slot) slot = std::make_shared<Cell>();
    cell = slot;
  }

  const util::MutexLock cell_guard(cell->mutex);
  if (cell->done) {
    if (cell->error) std::rethrow_exception(cell->error);
    return std::static_pointer_cast<const T>(cell->value);
  }

  ArtifactStore::Resolved resolved;
  try {
    resolved = shared->store->resolve(
        stage, key,
        [&] {
          auto value = std::make_shared<const T>(make());
          const std::size_t weight = weight_of(*value);
          return std::pair<std::shared_ptr<const void>, std::size_t>(std::move(value), weight);
        },
        PersistedArtifacts::tag_of<T>);
  } catch (...) {
    {
      const util::MutexLock guard(shared->diag_mutex);
      StageDiagnostics& diag = shared->diag[static_cast<std::size_t>(stage)];
      ++diag.lookups;
      ++diag.misses;
    }
    cell->error = std::current_exception();
    cell->done = true;
    throw;
  }
  {
    const util::MutexLock guard(shared->diag_mutex);
    StageDiagnostics& diag = shared->diag[static_cast<std::size_t>(stage)];
    ++diag.lookups;
    if (resolved.source == ArtifactStore::ResolveSource::kResident &&
        resolved.epoch < shared->epoch) {
      ++diag.hits;
    } else if (resolved.source == ArtifactStore::ResolveSource::kShared) {
      ++diag.shared;
    } else {
      ++diag.misses;
      diag.bytes_inserted += resolved.weight;
    }
  }
  cell->value = std::move(resolved.value);
  cell->done = true;
  return std::static_pointer_cast<const T>(cell->value);
}

// ---------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------

Pipeline::Pipeline(const System& system, const TwcaOptions& options, ArtifactStore& store,
                   std::uint64_t epoch, int jobs, std::shared_ptr<const ModelDigests> digests)
    : state_(std::make_unique<State>()) {
  state_->system = &system;
  state_->options = options;
  state_->digests = std::move(digests);
  state_->shared = std::make_shared<Shared>();
  state_->shared->store = &store;
  state_->shared->epoch = epoch;
  state_->shared->jobs = jobs;
}

Pipeline::Pipeline(std::shared_ptr<const System> owned, const TwcaOptions& options,
                   std::shared_ptr<Shared> shared, std::shared_ptr<const ModelDigests> digests)
    : state_(std::make_unique<State>()) {
  state_->owned = std::move(owned);
  state_->system = state_->owned.get();
  state_->options = options;
  state_->shared = std::move(shared);
  state_->digests = std::move(digests);
}

Pipeline::~Pipeline() = default;
Pipeline::Pipeline(Pipeline&&) noexcept = default;

const System& Pipeline::system() const { return *state_->system; }

std::shared_ptr<const InterferenceContext> Pipeline::interference(int target) {
  return state_->acquire<InterferenceContext>(
      ArtifactStage::kInterference, state_->interference_key_for(target),
      [&] { return make_interference_context(system(), target); });
}

std::shared_ptr<const LatencyResult> Pipeline::latency(int target) {
  return state_->acquire<LatencyResult>(
      ArtifactStage::kBusyWindow,
      state_->busy_window_key_for(target, /*without_overload=*/false), [&] {
        // Reuse the cached stage-1 context (and its flat arrival
        // tables) instead of rebuilding it inside the analysis.
        return latency_analysis(system(), *interference(target), state_->options.analysis);
      });
}

std::shared_ptr<const LatencyResult> Pipeline::latency_without_overload(int target) {
  return state_->acquire<LatencyResult>(
      ArtifactStage::kBusyWindow,
      state_->busy_window_key_for(target, /*without_overload=*/true),
      [&] {
        return latency_analysis(system(), *interference(target), state_->options.analysis,
                                system().overload_indices());
      });
}

std::shared_ptr<const TargetArtifacts> Pipeline::overload_artifacts(int target) {
  return state_->acquire<TargetArtifacts>(
      ArtifactStage::kOverload, state_->overload_key_for(target), [&] {
        return build_target_artifacts(system(), target, *interference(target), *latency(target),
                                      state_->options);
      });
}

DmmResult Pipeline::dmm(int target, Count k) {
  // Same preconditions (and messages) as TwcaAnalyzer::dmm, checked
  // before any key is derived.
  WHARF_EXPECT(k >= 1, "dmm requires k >= 1, got " << k);
  WHARF_EXPECT(target >= 0 && target < system().size(),
               "chain index " << target << " out of range [0, " << system().size() << ")");
  WHARF_EXPECT(!system().chain(target).is_overload(),
               "DMM target '" << system().chain(target).name()
                              << "' must not be an overload chain");

  const auto result = state_->acquire<DmmResult>(
      ArtifactStage::kDmmCurve,
      dmm_key(k, state_->options, state_->overload_key_for(target)), [&] {
        const auto full = latency(target);
        const auto artifacts = overload_artifacts(target);
        const PackingSolver solver = [this](const ilp::PackingProblem& problem) {
          return *state_->acquire<ilp::PackingSolution>(
              ArtifactStage::kIlp, packing_key(problem),
              [&] { return ilp::solve_packing_split(problem, state_->shared->jobs); });
        };
        return dmm_from_artifacts(system(), target, *full, *artifacts, k, state_->options,
                                  solver);
      });
  return *result;
}

std::vector<DmmResult> Pipeline::dmm_curve(int target, const std::vector<Count>& ks) {
  std::vector<DmmResult> out;
  out.reserve(ks.size());
  for (const Count k : ks) out.push_back(dmm(target, k));
  return out;
}

Pipeline& Pipeline::budgeted(int target, Time deadline) {
  const util::MutexLock guard(state_->budgeted_mutex);
  std::unique_ptr<Pipeline>& slot = state_->budgeted_memo[{target, deadline}];
  if (!slot) {
    auto owned = std::make_shared<const System>(system().with_deadline(target, deadline));
    auto digests = std::make_shared<const ModelDigests>(
        state_->digests->with_content(*owned, target));
    slot = std::unique_ptr<Pipeline>(new Pipeline(std::move(owned), state_->options,
                                                  state_->shared, std::move(digests)));
  }
  return *slot;
}

namespace {

/// Oracle plugging the pipeline into the core path composition: plain
/// latencies come from the root pipeline, budgeted dmm queries from
/// sub-pipelines over the deadline-substituted system.
class PipelineOracleImpl final : public PathChainOracle {
 public:
  explicit PipelineOracleImpl(Pipeline& root) : root_(root) {}

  LatencyResult latency(int chain) override { return *root_.latency(chain); }

  DmmResult dmm_with_budget(int chain, Time budget, Count k) override {
    return root_.budgeted(chain, budget).dmm(chain, k);
  }

 private:
  Pipeline& root_;
};

}  // namespace

PathLatencyResult Pipeline::path_latency(const PathSpec& path) {
  PipelineOracleImpl oracle{*this};
  return wharf::path_latency(system(), path, oracle);
}

PathDmmResult Pipeline::path_dmm(const PathSpec& path, Count k) {
  PipelineOracleImpl oracle{*this};
  return wharf::path_dmm(system(), path, k, oracle);
}

StageCounters Pipeline::stage_diagnostics() const {
  const util::MutexLock guard(state_->shared->diag_mutex);
  return state_->shared->diag;
}

// ---------------------------------------------------------------------
// Stage-counter arithmetic
// ---------------------------------------------------------------------

namespace {

template <typename Op>
StageDiagnostics combine(const StageDiagnostics& a, const StageDiagnostics& b, Op op) {
  return {op(a.lookups, b.lookups), op(a.hits, b.hits), op(a.misses, b.misses),
          op(a.shared, b.shared), op(a.bytes_inserted, b.bytes_inserted)};
}

template <typename Op>
StageCounters combine(const StageCounters& a, const StageCounters& b, Op op) {
  StageCounters out;
  for (std::size_t s = 0; s < kArtifactStageCount; ++s) out[s] = combine(a[s], b[s], op);
  return out;
}

}  // namespace

StageCounters add(const StageCounters& a, const StageCounters& b) {
  return combine(a, b, std::plus<>{});
}

StageCounters sub(const StageCounters& a, const StageCounters& b) {
  return combine(a, b, std::minus<>{});
}

StageDiagnostics total(const StageCounters& stages) {
  StageDiagnostics sum;
  for (const StageDiagnostics& stage : stages) sum = combine(sum, stage, std::plus<>{});
  return sum;
}

}  // namespace wharf
