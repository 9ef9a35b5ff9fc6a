#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>
#include <utility>

#include "engine/session.hpp"
#include "io/json.hpp"
#include "util/mutex.hpp"
#include "util/strings.hpp"
#include "util/thread_annotations.hpp"

namespace wharf {

namespace {

/// True when the DMM-carrying payload of a successful answer reports
/// kNoGuarantee anywhere.
bool answer_has_no_guarantee(const QueryResult& r) {
  if (const auto* dmm = std::get_if<DmmAnswer>(&r.answer)) {
    return std::any_of(dmm->curve.begin(), dmm->curve.end(), [](const DmmResult& d) {
      return d.status == DmmStatus::kNoGuarantee;
    });
  }
  if (const auto* wh = std::get_if<WeaklyHardAnswer>(&r.answer)) {
    return wh->dmm_status == DmmStatus::kNoGuarantee;
  }
  if (const auto* lat = std::get_if<LatencyAnswer>(&r.answer)) {
    return !lat->result.bounded;
  }
  if (const auto* path = std::get_if<PathLatencyAnswer>(&r.answer)) {
    return !path->result.bounded;
  }
  if (const auto* pd = std::get_if<PathDmmAnswer>(&r.answer)) {
    return std::any_of(pd->curve.begin(), pd->curve.end(), [](const PathDmmResult& d) {
      return d.status == DmmStatus::kNoGuarantee;
    });
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------
// AnalysisRequest / AnalysisReport
// ---------------------------------------------------------------------

AnalysisRequest AnalysisRequest::standard(System system, std::vector<Count> ks,
                                          TwcaOptions options) {
  if (ks.empty()) ks.push_back(10);
  AnalysisRequest request{std::move(system), options, {}};
  for (const int c : request.system.regular_indices()) {
    const std::string& name = request.system.chain(c).name();
    request.queries.push_back(LatencyQuery{name, /*without_overload=*/false});
    request.queries.push_back(LatencyQuery{name, /*without_overload=*/true});
    if (request.system.chain(c).deadline().has_value()) {
      request.queries.push_back(DmmQuery{name, ks});
    }
  }
  return request;
}

bool AnalysisReport::ok() const {
  return std::all_of(results.begin(), results.end(),
                     [](const QueryResult& r) { return r.ok(); });
}

Status AnalysisReport::worst_status() const {
  for (const QueryResult& r : results) {
    if (!r.ok()) return r.status;
  }
  for (const QueryResult& r : results) {
    if (answer_has_no_guarantee(r)) {
      return Status::no_guarantee(
          "analysis completed but cannot bound all misses (see per-query results)");
    }
  }
  return Status::ok();
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

struct Engine::Impl {
  EngineOptions options;
  ArtifactStore store;
  /// Startup snapshot-load outcome; written once in the constructor,
  /// read-only afterwards (so lock-free access is safe).
  PersistenceStats persistence;

  /// Periodic persist-on-idle (EngineOptions::persist_interval_ms): one
  /// background thread that re-spills the snapshot whenever artifacts
  /// were inserted since the last save, so an abruptly killed process
  /// still leaves a warm snapshot.  The dirty baseline is the insertion
  /// count right after the startup load, taken in the constructor
  /// before the thread starts (so insertions made before the thread is
  /// first scheduled still count as unsaved).  Joined (never detached)
  /// on destruction; the condvar interrupts the sleep so shutdown is
  /// immediate.
  util::Mutex persist_mutex;
  util::CondVar persist_cv;
  bool persist_stop WHARF_GUARDED_BY(persist_mutex) = false;
  std::thread persist_thread;

  explicit Impl(EngineOptions opts) : options(std::move(opts)), store(options.cache_bytes) {
    if (options.store_dir.empty()) return;
    // Best-effort warm start: an unwritable dir or corrupt snapshot
    // leaves the engine cold and fully functional.
    (void)ensure_store_dir(options.store_dir);
    const StoreLoadResult loaded = store.load(store_snapshot_path(options.store_dir));
    persistence.persisted_artifacts = loaded.records_loaded;
    persistence.load_skipped_corrupt = loaded.records_skipped;
    persistence.load_reason = loaded.reason;
    if (options.persist_interval_ms > 0) {
      const std::size_t baseline = total_insertions();
      persist_thread = std::thread([this, baseline] { persist_loop(baseline); });
    }
  }

  ~Impl() {
    if (!persist_thread.joinable()) return;
    {
      const util::MutexLock guard(persist_mutex);
      persist_stop = true;
    }
    persist_cv.notify_all();
    persist_thread.join();
  }

  /// Total store insertions so far — the dirty check of the periodic
  /// persist (the startup load's own insertions count as already saved).
  [[nodiscard]] std::size_t total_insertions() const {
    std::size_t n = 0;
    for (const ArtifactStore::StageStats& stage : store.stats().stage) n += stage.insertions;
    return n;
  }

  /// Spills the snapshot exactly like Engine::persist().
  [[nodiscard]] StoreSaveResult save_snapshot() const {
    const Status dir = ensure_store_dir(options.store_dir);
    if (!dir.is_ok()) return StoreSaveResult{dir, 0, 0, 0};
    return store.save(store_snapshot_path(options.store_dir));
  }

  /// `last_saved` is the insertion count the startup load left behind.
  void persist_loop(std::size_t last_saved) WHARF_EXCLUDES(persist_mutex) {
    const auto interval = std::chrono::milliseconds(options.persist_interval_ms);
    for (;;) {
      {
        const util::MutexLock guard(persist_mutex);
        if (!persist_stop) (void)persist_cv.wait_for(persist_mutex, interval);
        // A final save on graceful shutdown is the owner's job
        // (spill_store); the periodic thread only covers abrupt death.
        if (persist_stop) return;
      }
      const std::size_t inserted = total_insertions();
      if (inserted == last_saved) continue;  // idle: nothing new to spill
      // Best-effort: a failing save (unwritable dir, disk full) retries
      // on the next dirty tick rather than aborting the thread.
      if (save_snapshot().status.is_ok()) last_saved = inserted;
    }
  }
};

Engine::Engine(EngineOptions options) : impl_(std::make_unique<Impl>(std::move(options))) {}
Engine::~Engine() = default;
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;

const EngineOptions& Engine::options() const { return impl_->options; }

Session Engine::open_session(System system, TwcaOptions options) {
  return Session(std::move(system), options, impl_->store, impl_->options.jobs);
}

AnalysisReport Engine::run(const AnalysisRequest& request) {
  // One-shot adapter: an ephemeral session serves the whole request.
  Session session(request.system, request.options, impl_->store, impl_->options.jobs);
  return session.serve(request.queries);
}

ArtifactStore::Stats Engine::store_stats() const { return impl_->store.stats(); }

const Engine::PersistenceStats& Engine::persistence_stats() const { return impl_->persistence; }

StoreSaveResult Engine::persist() const {
  if (impl_->options.store_dir.empty()) return StoreSaveResult{};
  return impl_->save_snapshot();
}

// ---------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------

namespace {

void write_status(io::JsonWriter& w, const Status& status) {
  w.key("status");
  w.value(to_string(status.code()));
  if (!status.message().empty()) {
    w.key("reason");
    w.value(status.message());
  }
}

void write_string_array(io::JsonWriter& w, const std::vector<std::string>& values) {
  w.begin_array();
  for (const std::string& v : values) w.value(v);
  w.end_array();
}

void write_path_dmm(io::JsonWriter& w, const PathDmmResult& r) {
  w.begin_object();
  w.key("k");
  w.value(r.k);
  w.key("dmm");
  w.value(r.dmm);
  w.key("status");
  w.value(to_string(r.status));
  if (!r.reason.empty()) {
    w.key("reason");
    w.value(r.reason);
  }
  w.key("budgets");
  w.begin_array();
  for (const Time b : r.budgets) w.value(b);
  w.end_array();
  w.key("per_chain");
  w.begin_array();
  for (const Count c : r.per_chain) w.value(c);
  w.end_array();
  w.end_object();
}

void write_answer(io::JsonWriter& w, const QueryResult& result) {
  std::visit(
      [&](const auto& a) {
        using A = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<A, std::monostate>) {
          w.key("query");
          w.value("failed");
        } else if constexpr (std::is_same_v<A, LatencyAnswer>) {
          w.key("query");
          w.value("latency");
          w.key("chain");
          w.value(a.chain);
          w.key("without_overload");
          w.value(a.without_overload);
          w.key("latency");
          w.raw(io::to_json(a.result));
        } else if constexpr (std::is_same_v<A, DmmAnswer>) {
          w.key("query");
          w.value("dmm");
          w.key("chain");
          w.value(a.chain);
          w.key("dmm");
          w.begin_array();
          for (const DmmResult& r : a.curve) w.raw(io::to_json(r));
          w.end_array();
        } else if constexpr (std::is_same_v<A, WeaklyHardAnswer>) {
          w.key("query");
          w.value("weakly_hard");
          w.key("chain");
          w.value(a.chain);
          w.key("m");
          w.value(a.m);
          w.key("k");
          w.value(a.k);
          w.key("dmm");
          w.value(a.dmm);
          w.key("dmm_status");
          w.value(to_string(a.dmm_status));
          w.key("satisfied");
          w.value(a.satisfied);
        } else if constexpr (std::is_same_v<A, SimulationAnswer>) {
          w.key("query");
          w.value("simulation");
          w.key("makespan");
          w.value(a.makespan);
          w.key("chains");
          w.begin_array();
          for (const SimulationAnswer::ChainStats& c : a.chains) {
            w.begin_object();
            w.key("chain");
            w.value(c.chain);
            w.key("completed");
            w.value(c.completed);
            w.key("max_latency");
            w.value(c.max_latency);
            w.key("misses");
            w.value(c.miss_count);
            w.key("max_window_misses");
            w.value(c.max_window_misses);
            w.end_object();
          }
          w.end_array();
          w.key("validated");
          w.value(a.validated);
          w.key("violations");
          w.begin_array();
          for (const std::string& v : a.violations) w.value(v);
          w.end_array();
        } else if constexpr (std::is_same_v<A, SearchAnswer>) {
          w.key("query");
          w.value("priority_search");
          w.key("nominal");
          io::write_objective(w, a.nominal);
          w.key("best");
          io::write_objective(w, a.result.best_objective);
          w.key("evaluations");
          w.value(a.result.evaluations);
          w.key("priorities");
          w.begin_array();
          for (const Priority p : a.result.best_priorities) w.value(p);
          w.end_array();
          const StageDiagnostics store = total(a.stats.stages);
          w.key("store");
          w.begin_object();
          w.key("lookups");
          w.value(static_cast<long long>(store.lookups));
          w.key("hits");
          w.value(static_cast<long long>(store.hits));
          w.key("misses");
          w.value(static_cast<long long>(store.misses));
          w.key("shared");
          w.value(static_cast<long long>(store.shared));
          w.end_object();
        } else if constexpr (std::is_same_v<A, PathLatencyAnswer>) {
          w.key("query");
          w.value("path_latency");
          w.key("chains");
          write_string_array(w, a.chains);
          w.key("bounded");
          w.value(a.result.bounded);
          if (!a.result.reason.empty()) {
            w.key("reason");
            w.value(a.result.reason);
          }
          w.key("wcl");
          w.value(a.result.wcl);
          w.key("per_chain_wcl");
          w.begin_array();
          for (const Time t : a.result.per_chain_wcl) w.value(t);
          w.end_array();
        } else if constexpr (std::is_same_v<A, PathDmmAnswer>) {
          w.key("query");
          w.value("path_dmm");
          w.key("chains");
          write_string_array(w, a.chains);
          w.key("dmm");
          w.begin_array();
          for (const PathDmmResult& r : a.curve) write_path_dmm(w, r);
          w.end_array();
        }
      },
      result.answer);
}

void write_result(io::JsonWriter& w, const QueryResult& result) {
  w.begin_object();
  if (result.ok()) {
    write_answer(w, result);
  }
  write_status(w, result.status);
  w.end_object();
}

void write_report_diagnostics(io::JsonWriter& w, const ReportDiagnostics& diagnostics) {
  w.begin_object();
  w.key("system_hash");
  {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(diagnostics.system_hash));
    w.value(std::string(buf));
  }
  w.key("cache_hit");
  w.value(diagnostics.cache_hit);
  w.key("cache_hits");
  w.value(static_cast<long long>(diagnostics.cache_hits));
  w.key("cache_misses");
  w.value(static_cast<long long>(diagnostics.cache_misses));
  w.key("cache_shared");
  w.value(static_cast<long long>(diagnostics.cache_shared));
  w.key("stages");
  w.begin_object();
  for (std::size_t s = 0; s < kArtifactStageCount; ++s) {
    const StageDiagnostics& stage = diagnostics.stages[s];
    w.key(to_string(static_cast<ArtifactStage>(static_cast<int>(s))));
    w.begin_object();
    w.key("lookups");
    w.value(static_cast<long long>(stage.lookups));
    w.key("hits");
    w.value(static_cast<long long>(stage.hits));
    w.key("misses");
    w.value(static_cast<long long>(stage.misses));
    w.key("shared");
    w.value(static_cast<long long>(stage.shared));
    w.key("bytes_inserted");
    w.value(static_cast<long long>(stage.bytes_inserted));
    w.end_object();
  }
  w.end_object();
  if (diagnostics.search_evaluations > 0) {
    w.key("search");
    w.begin_object();
    w.key("evaluations");
    w.value(diagnostics.search_evaluations);
    w.key("hits");
    w.value(static_cast<long long>(diagnostics.search_hits));
    w.key("misses");
    w.value(static_cast<long long>(diagnostics.search_misses));
    w.key("shared");
    w.value(static_cast<long long>(diagnostics.search_shared));
    w.end_object();
  }
  w.key("queries_failed");
  w.value(static_cast<long long>(diagnostics.queries_failed));
  w.end_object();
}

}  // namespace

std::string to_json(const QueryResult& result) {
  std::ostringstream os;
  io::JsonWriter w(os);
  write_result(w, result);
  return os.str();
}

std::string to_json(const ReportDiagnostics& diagnostics) {
  std::ostringstream os;
  io::JsonWriter w(os);
  write_report_diagnostics(w, diagnostics);
  return os.str();
}

std::string to_json(const AnalysisReport& report) {
  std::ostringstream os;
  io::JsonWriter w(os);
  w.begin_object();
  w.key("system");
  w.value(report.system);
  write_status(w, report.worst_status());
  w.key("results");
  w.begin_array();
  for (const QueryResult& result : report.results) {
    write_result(w, result);
  }
  w.end_array();
  w.key("diagnostics");
  write_report_diagnostics(w, report.diagnostics);
  w.end_object();
  return os.str();
}

}  // namespace wharf
