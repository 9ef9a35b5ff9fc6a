/// \file artifact_store.hpp
/// The staged artifact store behind wharf::Engine: a shared,
/// weight-accounted, LRU-evicting cache of analysis-stage results.
///
/// Where PR 1's engine cached one opaque analyzer per system, the store
/// caches every pipeline stage separately — interference contexts, busy
/// windows, overload artifacts, dmm(k) results, packing-ILP solutions —
/// keyed by a 128-bit structural digest of the model slice the stage
/// actually reads (ArtifactKey, core/model_slice.hpp).  Two requests
/// that differ in one chain's priority therefore share every artifact
/// whose slice is unchanged: a design-space sweep recomputes only what
/// the mutation touches.
///
/// Size accounting is by artifact *weight* (bytes, measured per type via
/// util/weight.hpp) against a configurable byte budget, replacing the
/// old entry-count cap: admission rejects artifacts larger than the
/// whole budget, and eviction drops least-recently-used artifacts —
/// across all stages — until the budget holds.
///
/// Epochs keep per-request diagnostics meaningful under parallelism:
/// every session revision (Engine::run's ephemeral session, each
/// Session::apply(), each speculate() candidate) begins its own epoch,
/// and a lookup classifies as a *hit* only when the artifact was
/// resident before that revision began.  An artifact another session
/// inserts while this revision runs is shared once resident but counts
/// as a miss here.  Answers are bit-identical for any jobs value; how
/// concurrent sessions split misses and shared joins depends on
/// scheduling.
///
/// Cross-request single-flight: resolve() keeps an in-flight table keyed
/// by (stage, key), so when several callers — concurrent `wharf serve`
/// connections, concurrent search candidates of one neighborhood —
/// need the same absent artifact at once, exactly one computes it and
/// the others wait and share the result instead of racing (equal keys
/// provably yield equal values, so sharing is transparent).
///
/// Thread-safe: all methods may be called concurrently.

#ifndef WHARF_ENGINE_ARTIFACT_STORE_HPP
#define WHARF_ENGINE_ARTIFACT_STORE_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/model_slice.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace wharf {

struct StoreSaveOptions;  // store_persist.hpp
struct StoreSaveResult;   // store_persist.hpp
struct StoreLoadResult;   // store_persist.hpp

/// The pipeline stages the store distinguishes (one counter set each).
enum class ArtifactStage : int {
  kInterference = 0,  ///< per-target interference contexts (Defs 2-5)
  kBusyWindow,        ///< per-target latency results (Thm 1/2), both variants
  kOverload,          ///< per-target k-independent overload artifacts (Eq. 5 / Def. 9)
  kDmmCurve,          ///< per-(target, k) dmm results (Thm 3)
  kIlp,               ///< packing solutions keyed by problem content
};

inline constexpr std::size_t kArtifactStageCount = 5;

/// Short stable stage name ("interference", "busy_window", ...).
[[nodiscard]] const char* to_string(ArtifactStage stage);

/// The shared staged artifact cache (see the file comment for the key,
/// weight, epoch and single-flight semantics).  Fully thread-safe: all
/// methods may be called concurrently — this is the one object every
/// session, request, search candidate and serve connection of an Engine
/// shares without external locking.
class ArtifactStore {
 public:
  /// Default weight budget: 64 MiB of resident artifacts.
  static constexpr std::size_t kDefaultByteBudget = std::size_t{64} << 20;

  /// `byte_budget` caps resident artifact weight (the fixed 16-byte key
  /// is per-entry bookkeeping, like the map and LRU nodes, and is not
  /// charged); 0 means unlimited.
  explicit ArtifactStore(std::size_t byte_budget = kDefaultByteBudget);

  /// Starts a new epoch (a session revision's boundary) and returns its
  /// id.
  std::uint64_t begin_epoch() WHARF_EXCLUDES(mutex_);

  /// A lookup() result: the artifact plus its insertion epoch.
  struct Found {
    std::shared_ptr<const void> value;  ///< type-erased artifact (per stage)
    /// Epoch in which the artifact was inserted (for hit classification).
    std::uint64_t epoch = 0;
  };

  /// Looks an artifact up and bumps its recency.  Does not touch the
  /// per-stage lookup counters — the pipeline owns request-local
  /// counting; the store counts only insertions/evictions/residency.
  [[nodiscard]] std::optional<Found> lookup(ArtifactStage stage, const ArtifactKey& key)
      WHARF_EXCLUDES(mutex_);

  /// Inserts an artifact of `weight` bytes.  A key already present is
  /// left untouched (first insertion wins — values for equal keys are
  /// equal by construction).  Artifacts heavier than the whole budget
  /// are rejected, everything else is admitted and the LRU tail is
  /// evicted until the budget holds.  `type_tag` names the concrete
  /// type behind the erased value (PersistedArtifacts in
  /// artifact_types.hpp);
  /// entries tagged 0 are skipped by persistence.
  void insert(ArtifactStage stage, const ArtifactKey& key,
              std::shared_ptr<const void> value, std::size_t weight,
              std::uint8_t type_tag = 0) WHARF_EXCLUDES(mutex_);

  /// Computation callback of resolve(): produces the artifact and its
  /// weight in bytes.  Runs outside every store lock and may itself call
  /// back into the store for upstream artifacts (stage dependencies are
  /// acyclic, so recursive resolution cannot deadlock the flight table).
  using Compute = std::function<std::pair<std::shared_ptr<const void>, std::size_t>()>;

  /// How resolve() obtained an artifact.
  enum class ResolveSource {
    kResident,  ///< found in the store (recency bumped, like lookup())
    kComputed,  ///< this caller ran `compute` and inserted the result
    kShared,    ///< joined another caller's in-flight computation
  };

  /// A resolve() result: the artifact plus how this caller obtained it.
  struct Resolved {
    std::shared_ptr<const void> value;  ///< type-erased artifact (per stage)
    /// Epoch the artifact was inserted in (meaningful for kResident —
    /// computed/shared artifacts are by definition of this epoch).
    std::uint64_t epoch = 0;
    ResolveSource source = ResolveSource::kComputed;
    /// Weight handed to insert(); non-zero only for kComputed.
    std::size_t weight = 0;
  };

  /// Single-flight resolution: returns the resident artifact when
  /// present; otherwise the *first* caller of `key` runs `compute` and
  /// inserts the result while concurrent callers of the same key wait on
  /// the in-flight entry and share the value instead of recomputing.
  /// When compute throws, every waiter rethrows the same error and the
  /// flight is retired (a later caller computes afresh).  `type_tag` is
  /// recorded on insertion like insert()'s.
  [[nodiscard]] Resolved resolve(ArtifactStage stage, const ArtifactKey& key,
                                 const Compute& compute, std::uint8_t type_tag = 0)
      WHARF_EXCLUDES(mutex_);

  /// Monotonic counters plus current residency, per stage.
  struct StageStats {
    std::size_t insertions = 0;
    std::size_t evictions = 0;
    std::size_t rejected = 0;  ///< admission refusals (artifact > budget)
    /// resolve() calls that joined another caller's in-flight
    /// computation (incremented when the caller *starts* waiting, so a
    /// compute callback can observe how many callers share its flight).
    std::size_t flights_shared = 0;
    std::size_t resident_entries = 0;
    std::size_t resident_bytes = 0;
  };
  /// Store-wide totals plus the per-stage StageStats breakdown.
  struct Stats {
    std::array<StageStats, kArtifactStageCount> stage;  ///< indexed by ArtifactStage
    std::size_t resident_entries = 0;  ///< artifacts currently resident
    std::size_t resident_bytes = 0;    ///< their summed weight
    std::size_t evictions = 0;         ///< lifetime LRU evictions
  };
  /// A consistent snapshot of the counters (one lock acquisition).
  [[nodiscard]] Stats stats() const WHARF_EXCLUDES(mutex_);

  /// The configured weight budget in bytes (0 = unlimited).
  [[nodiscard]] std::size_t byte_budget() const { return byte_budget_; }

  /// One resident artifact as handed to persistence (store_persist.cpp).
  struct ExportedArtifact {
    ArtifactStage stage{};              ///< pipeline stage of the entry
    std::uint8_t type_tag = 0;          ///< PersistedArtifacts tag of the void
    ArtifactKey key;                    ///< the entry's key (stage aside)
    std::shared_ptr<const void> value;  ///< the artifact itself
    std::size_t weight = 0;             ///< artifact weight
  };

  /// Snapshot of every resident artifact in LRU order, least recent
  /// first — re-inserting in this order reproduces the recency order,
  /// so a loaded store evicts in the same sequence the saved one would
  /// have.  Values are shared (cheap), not copied.
  [[nodiscard]] std::vector<ExportedArtifact> export_artifacts() const WHARF_EXCLUDES(mutex_);

  /// Persists every resident typed artifact to `path` — convenience
  /// front of StoreSnapshot::save() (store_persist.hpp has the format
  /// and durability contract).  Defined in store_persist.cpp.
  [[nodiscard]] StoreSaveResult save(const std::string& path) const;

  /// Loads a snapshot written by save() — convenience front of
  /// StoreSnapshot::load(); corrupt or mismatched files degrade to a
  /// cold start with a reason, never an error.  Defined in
  /// store_persist.cpp.
  [[nodiscard]] StoreLoadResult load(const std::string& path);

  /// Drops every artifact (counters other than residency are kept).
  void clear() WHARF_EXCLUDES(mutex_);

 private:
  /// An entry's identity: (stage, key) — equal keys of different stages
  /// are different entries.
  struct Slot {
    ArtifactKey key;
    ArtifactStage stage{};
    friend bool operator==(const Slot&, const Slot&) = default;
  };
  struct SlotHash {
    /// Bucket hash of `slot` (key digest plus stage).
    std::size_t operator()(const Slot& slot) const noexcept {
      return ArtifactKey::Hash{}(slot.key) + static_cast<std::size_t>(slot.stage);
    }
  };

  struct Entry {
    std::shared_ptr<const void> value;
    std::uint8_t type_tag = 0;
    std::size_t weight = 0;  ///< charged (artifact) weight
    std::uint64_t epoch = 0;
    /// Position in `recency_` (O(1) bump via splice on a hit).
    std::list<Slot>::iterator lru;
  };

  /// One in-flight computation: the owner computes, everyone else waits.
  /// Flight::mutex nests strictly *inside* no other lock — both the
  /// owner and the waiters touch a flight only after releasing the
  /// store's mutex_ (resolve() never holds both), so the two levels
  /// cannot deadlock.
  struct Flight {
    util::Mutex mutex;
    util::CondVar done_cv;
    bool done WHARF_GUARDED_BY(mutex) = false;         ///< compute finished
    std::shared_ptr<const void> value WHARF_GUARDED_BY(mutex);  ///< its result
    std::exception_ptr error WHARF_GUARDED_BY(mutex);  ///< or its exception
  };

  void insert_locked(const Slot& slot, std::shared_ptr<const void> value, std::size_t weight,
                     std::uint8_t type_tag) WHARF_REQUIRES(mutex_);
  void evict_to_budget_locked() WHARF_REQUIRES(mutex_);

  const std::size_t byte_budget_;
  mutable util::Mutex mutex_;
  std::uint64_t epoch_ WHARF_GUARDED_BY(mutex_) = 0;
  std::size_t resident_bytes_ WHARF_GUARDED_BY(mutex_) = 0;
  /// Slots in recency order, most recent first (LRU eviction from the
  /// back).
  std::list<Slot> recency_ WHARF_GUARDED_BY(mutex_);
  std::unordered_map<Slot, Entry, SlotHash> entries_ WHARF_GUARDED_BY(mutex_);
  /// Open single-flight computations (resolve()).
  std::unordered_map<Slot, std::shared_ptr<Flight>, SlotHash> flights_ WHARF_GUARDED_BY(mutex_);
  std::array<StageStats, kArtifactStageCount> stage_stats_ WHARF_GUARDED_BY(mutex_) = {};
};

}  // namespace wharf

#endif  // WHARF_ENGINE_ARTIFACT_STORE_HPP
