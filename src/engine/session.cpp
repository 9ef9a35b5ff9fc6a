#include "engine/session.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <utility>

#include "core/arrival.hpp"
#include "io/system_format.hpp"
#include "search/priority_search.hpp"
#include "sim/arrival_sequence.hpp"
#include "sim/busy_windows.hpp"
#include "sim/simulator.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"
#include "util/worker_pool.hpp"

namespace wharf {

namespace {

/// Whole-model fingerprint (diagnostics only — stage artifacts key on
/// the finer slice digests of core/model_slice.hpp): the serialized
/// system plus every analysis knob.
std::string model_fingerprint(const System& system, const TwcaOptions& o) {
  std::ostringstream os;
  os << io::serialize_system(system) << '\n'
     << "criterion=" << static_cast<int>(o.criterion) << " max_combinations="
     << o.max_combinations << " cap_at_k=" << o.cap_at_k
     << " max_busy_windows=" << o.analysis.max_busy_windows
     << " max_fixed_point_iterations=" << o.analysis.max_fixed_point_iterations
     << " divergence_guard=" << o.analysis.divergence_guard
     << " naive_arbitrary=" << o.analysis.naive_arbitrary;
  return os.str();
}

// ---------------------------------------------------------------------
// Query runners (shared by Session::execute and, through it, the Engine)
// ---------------------------------------------------------------------

/// Runs a query body under capture() and files its answer, or the
/// Status of what it threw, into a QueryResult.  A template, not a
/// std::function: every query of every request passes through here.
template <typename Body>
QueryResult answer_of(Body&& body) {
  auto answer = capture(std::forward<Body>(body));
  if (!answer) return {answer.status(), {}};
  return {Status::ok(), std::move(answer).value()};
}

/// Resolves a chain name to its index or a not-found Status.
Expected<int> resolve_chain(const System& system, const std::string& name) {
  const auto index = system.chain_index(name);
  if (!index.has_value()) {
    return Status::not_found(util::cat("unknown chain '", name, "' in system '", system.name(),
                                       "'"));
  }
  return *index;
}

QueryResult run_latency(Pipeline& pipeline, const LatencyQuery& query) {
  const Expected<int> chain = resolve_chain(pipeline.system(), query.chain);
  if (!chain) return {chain.status(), {}};
  return answer_of([&] {
    LatencyAnswer a{query.chain, query.without_overload, {}};
    a.result = query.without_overload ? *pipeline.latency_without_overload(chain.value())
                                      : *pipeline.latency(chain.value());
    return a;
  });
}

QueryResult run_dmm(Pipeline& pipeline, const DmmQuery& query) {
  const Expected<int> chain = resolve_chain(pipeline.system(), query.chain);
  if (!chain) return {chain.status(), {}};
  const std::vector<Count> ks = query.ks.empty() ? std::vector<Count>{10} : query.ks;
  return answer_of([&] { return DmmAnswer{query.chain, pipeline.dmm_curve(chain.value(), ks)}; });
}

QueryResult run_weakly_hard(Pipeline& pipeline, const WeaklyHardQuery& query) {
  const Expected<int> chain = resolve_chain(pipeline.system(), query.chain);
  if (!chain) return {chain.status(), {}};
  return answer_of([&] {
    WHARF_EXPECT(query.m >= 0, "weakly-hard m must be >= 0, got " << query.m);
    const DmmResult r = pipeline.dmm(chain.value(), query.k);
    return WeaklyHardAnswer{query.chain, query.m,    query.k,
                            r.dmm,       r.status,   r.dmm <= query.m};
  });
}

/// Resolves a path's chain names into a PathSpec, or a not-found Status.
Expected<PathSpec> resolve_path(const System& system, const std::vector<std::string>& names) {
  PathSpec spec;
  for (const std::string& name : names) {
    const Expected<int> chain = resolve_chain(system, name);
    if (!chain) return chain.status();
    spec.chains.push_back(chain.value());
  }
  return spec;
}

QueryResult run_path_latency(Pipeline& pipeline, const PathLatencyQuery& query) {
  const Expected<PathSpec> spec = resolve_path(pipeline.system(), query.chains);
  if (!spec) return {spec.status(), {}};
  return answer_of(
      [&] { return PathLatencyAnswer{query.chains, pipeline.path_latency(spec.value())}; });
}

QueryResult run_path_dmm(Pipeline& pipeline, const PathDmmQuery& query) {
  const Expected<PathSpec> resolved = resolve_path(pipeline.system(), query.chains);
  if (!resolved) return {resolved.status(), {}};
  return answer_of([&] {
    WHARF_EXPECT(query.deadline >= 1,
                 "path DMM requires a deadline >= 1, got " << query.deadline);
    PathSpec spec = resolved.value();
    spec.deadline = query.deadline;
    spec.budgets = query.budgets;
    const std::vector<Count> ks = query.ks.empty() ? std::vector<Count>{10} : query.ks;
    PathDmmAnswer a{query.chains, {}};
    a.curve.reserve(ks.size());
    for (const Count k : ks) a.curve.push_back(pipeline.path_dmm(spec, k));
    return a;
  });
}

QueryResult run_simulation(Pipeline& pipeline, const SimulationQuery& query) {
  return answer_of([&] {
    WHARF_EXPECT(query.horizon >= 1, "simulation horizon must be >= 1, got " << query.horizon);
    WHARF_EXPECT(query.check_k >= 1, "simulation check_k must be >= 1, got " << query.check_k);
    const System& system = pipeline.system();

    std::vector<std::vector<Time>> arrivals;
    arrivals.reserve(static_cast<std::size_t>(system.size()));
    for (int c = 0; c < system.size(); ++c) {
      const ArrivalModel& model = system.chain(c).arrival();
      if (query.extra_gap < 0) {
        arrivals.push_back(sim::greedy_arrivals(model, 0, query.horizon));
      } else {
        arrivals.push_back(sim::random_arrivals(model, 0, query.horizon, query.extra_gap,
                                                query.seed + static_cast<std::uint64_t>(c)));
      }
    }
    sim::SimOptions sim_options;
    sim_options.record_trace = query.record_trace;
    sim::SimResult run = sim::simulate(system, arrivals, sim_options);

    SimulationAnswer a;
    a.makespan = run.makespan;
    a.trace = std::move(run.trace);
    for (int c = 0; c < system.size(); ++c) {
      const sim::ChainResult& cr = run.chains[static_cast<std::size_t>(c)];
      SimulationAnswer::ChainStats stats;
      stats.chain = system.chain(c).name();
      stats.completed = cr.completed;
      stats.max_latency = cr.max_latency;
      stats.miss_count = cr.miss_count;
      stats.max_window_misses = cr.instances.empty() ? 0 : cr.max_misses_in_window(query.check_k);
      a.chains.push_back(std::move(stats));
    }

    if (query.cross_validate) {
      for (const int c : system.regular_indices()) {
        const auto& stats = a.chains[static_cast<std::size_t>(c)];
        const LatencyResult& bound = *pipeline.latency(c);
        if (bound.bounded && stats.max_latency > bound.wcl) {
          a.violations.push_back(util::cat("chain '", stats.chain, "': simulated latency ",
                                           stats.max_latency, " exceeds WCL bound ", bound.wcl));
        }
        if (!system.chain(c).deadline().has_value()) continue;
        // The dmm bound is claimed only under the paper's standing
        // assumption: at most one activation per overload chain within
        // any busy window.  Check it exactly on the observed run (as
        // the property suite does) and skip the dmm comparison for
        // runs outside that regime.
        const auto windows = sim::observed_busy_windows(run.chains[static_cast<std::size_t>(c)]);
        bool assumption_holds = true;
        for (const int o : system.overload_indices()) {
          assumption_holds =
              assumption_holds &&
              sim::at_most_one_arrival_per_window(windows,
                                                  arrivals[static_cast<std::size_t>(o)]);
        }
        if (!assumption_holds) continue;
        const DmmResult dmm = pipeline.dmm(c, query.check_k);
        if (dmm.status != DmmStatus::kNoGuarantee && stats.max_window_misses > dmm.dmm) {
          a.violations.push_back(util::cat("chain '", stats.chain, "': ",
                                           stats.max_window_misses, " misses in a window of ",
                                           query.check_k, " exceed dmm bound ", dmm.dmm));
        }
      }
      a.validated = a.violations.empty();
    }
    return a;
  });
}

/// Scores candidates against the session's shared store: the search
/// warms, and profits from, the same artifacts as every other query,
/// and hill-climb neighborhoods evaluate on the worker pool.
QueryResult run_search(ArtifactStore& store, int jobs, std::size_t concurrent_tasks,
                       const System& system, const TwcaOptions& options,
                       const PrioritySearchQuery& query) {
  return answer_of([&] {
    const search::EvaluationSpec spec{query.k, {}};
    // The session already spreads the serving call's query tasks over
    // the worker pool; give the evaluator the pool width only when this
    // search has the pool to itself, so neither a multi-query request
    // nor a batch of single-query requests can fan out jobs^2 threads
    // (parallel_for_index spawns per call).
    const int evaluator_jobs = concurrent_tasks > 1 ? 1 : jobs;
    search::PipelineEvaluator evaluator(system, spec, options, store, evaluator_jobs);
    SearchAnswer a;
    a.nominal = evaluator.evaluate(system.flat_priorities());
    switch (query.strategy) {
      case PrioritySearchQuery::Strategy::kRandom:
        WHARF_EXPECT(query.budget >= 1, "search budget must be >= 1, got " << query.budget);
        a.result = search::random_search(evaluator, query.budget, query.seed);
        break;
      case PrioritySearchQuery::Strategy::kExhaustive:
        a.result = search::exhaustive_search(evaluator, query.max_permutations);
        break;
      case PrioritySearchQuery::Strategy::kHillClimb: {
        WHARF_EXPECT(query.budget >= 1, "search budget must be >= 1, got " << query.budget);
        WHARF_EXPECT(query.restarts >= 1, "climb restarts must be >= 1, got " << query.restarts);
        search::HillClimbOptions climb;
        climb.restarts = query.restarts;
        climb.max_steps = query.budget;
        climb.seed = query.seed;
        a.result = search::hill_climb(evaluator, climb);
        break;
      }
    }
    a.stats = evaluator.stats();
    return a;
  });
}

// ---------------------------------------------------------------------
// Delta application
// ---------------------------------------------------------------------

Chain::Spec spec_of(const Chain& chain) {
  Chain::Spec spec;
  spec.name = chain.name();
  spec.kind = chain.kind();
  spec.arrival = chain.arrival_ptr();
  spec.deadline = chain.deadline();
  spec.overload = chain.is_overload();
  spec.tasks = chain.tasks();
  return spec;
}

int find_spec(const std::vector<Chain::Spec>& specs, const std::string& chain_name) {
  for (std::size_t c = 0; c < specs.size(); ++c) {
    if (specs[c].name == chain_name) return static_cast<int>(c);
  }
  return -1;
}

/// Resolves a dotted "chain.task" name against the evolving spec list.
/// Chain and task names may themselves contain dots, so every split
/// position is tried; exactly one must resolve (zero is not-found, two+
/// is a refusal — never a silent wrong-task pick).
Status find_task_spec(const std::vector<Chain::Spec>& specs, const std::string& dotted,
                      int& chain, int& task) {
  if (dotted.find('.') == std::string::npos) {
    return Status::invalid_argument(
        util::cat("task reference '", dotted, "' must be dotted 'chain.task'"));
  }
  int matches = 0;
  for (auto dot = dotted.find('.'); dot != std::string::npos; dot = dotted.find('.', dot + 1)) {
    const int c = find_spec(specs, dotted.substr(0, dot));
    if (c < 0) continue;
    const std::string task_name = dotted.substr(dot + 1);
    const auto& tasks = specs[static_cast<std::size_t>(c)].tasks;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (tasks[t].name == task_name) {
        ++matches;
        chain = c;
        task = static_cast<int>(t);
      }
    }
  }
  if (matches == 0) return Status::not_found(util::cat("unknown task '", dotted, "'"));
  if (matches > 1) {
    return Status::invalid_argument(
        util::cat("ambiguous task reference '", dotted,
                  "' (several chain.task splits resolve; rename to disambiguate)"));
  }
  return Status::ok();
}

/// Applies one delta to the evolving spec list (name resolution and
/// value plumbing only — model invariants are validated when the system
/// is rebuilt at the end of the batch).
Status apply_one(std::vector<Chain::Spec>& specs, const Delta& delta) {
  return std::visit(
      [&](const auto& d) -> Status {
        using D = std::decay_t<decltype(d)>;
        if constexpr (std::is_same_v<D, SetPriorityDelta>) {
          int chain = -1;
          int task = -1;
          const Status found = find_task_spec(specs, d.task, chain, task);
          if (!found.is_ok()) return found;
          specs[static_cast<std::size_t>(chain)].tasks[static_cast<std::size_t>(task)].priority =
              d.priority;
          return Status::ok();
        } else if constexpr (std::is_same_v<D, SetWcetDelta>) {
          int chain = -1;
          int task = -1;
          const Status found = find_task_spec(specs, d.task, chain, task);
          if (!found.is_ok()) return found;
          specs[static_cast<std::size_t>(chain)].tasks[static_cast<std::size_t>(task)].wcet =
              d.wcet;
          return Status::ok();
        } else if constexpr (std::is_same_v<D, SetDeadlineDelta>) {
          const int chain = find_spec(specs, d.chain);
          if (chain < 0) return Status::not_found(util::cat("unknown chain '", d.chain, "'"));
          specs[static_cast<std::size_t>(chain)].deadline = d.deadline;
          return Status::ok();
        } else if constexpr (std::is_same_v<D, SetArrivalDelta>) {
          const int chain = find_spec(specs, d.chain);
          if (chain < 0) return Status::not_found(util::cat("unknown chain '", d.chain, "'"));
          const auto parsed = capture([&] { return parse_arrival(d.arrival); });
          if (!parsed) return parsed.status();
          specs[static_cast<std::size_t>(chain)].arrival = parsed.value();
          return Status::ok();
        } else if constexpr (std::is_same_v<D, AddChainDelta>) {
          specs.push_back(spec_of(d.chain));
          return Status::ok();
        } else {
          static_assert(std::is_same_v<D, RemoveChainDelta>);
          const int chain = find_spec(specs, d.chain);
          if (chain < 0) return Status::not_found(util::cat("unknown chain '", d.chain, "'"));
          specs.erase(specs.begin() + chain);
          return Status::ok();
        }
      },
      delta);
}

/// The whole batch against `base`: evolving specs, then one rebuild
/// whose validation failures surface as invalid-argument.
Expected<System> mutate(const System& base, const std::vector<Delta>& deltas) {
  std::vector<Chain::Spec> specs;
  specs.reserve(base.chains().size());
  for (const Chain& chain : base.chains()) specs.push_back(spec_of(chain));
  for (const Delta& delta : deltas) {
    const Status applied = apply_one(specs, delta);
    if (!applied.is_ok()) return applied;
  }
  return capture([&] {
    std::vector<Chain> chains;
    chains.reserve(specs.size());
    for (Chain::Spec& spec : specs) chains.emplace_back(std::move(spec));
    return System(base.name(), std::move(chains));
  });
}

}  // namespace

bool is_structural(const Delta& delta) {
  return !std::holds_alternative<SetPriorityDelta>(delta);
}

// ---------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------

struct Session::Impl {
  ArtifactStore* store = nullptr;
  TwcaOptions options;
  int jobs = 1;
  std::shared_ptr<const System> model;
  /// Digest table of *model (immutable; speculative children derive
  /// theirs from it).
  std::shared_ptr<const ModelDigests> digests;
  /// Digests this session carried over vs. computed, summed over its
  /// table build and every apply().
  DigestStats digest_stats{};
  std::uint64_t epoch = 0;
  std::uint64_t revision = 0;
  long long deltas_applied = 0;
  std::atomic<long long> queries_served{0};
  std::unique_ptr<Pipeline> pipeline;
  /// Stage counters of pipelines retired by apply().
  StageCounters retired{};
  /// Totals already handed out through collect() — the baseline of the
  /// next report's per-call diagnostics.
  StageCounters reported{};

  void set_digests(std::shared_ptr<const ModelDigests> table) {
    digests = std::move(table);
    digest_stats.hits += digests->stats().hits;
    digest_stats.misses += digests->stats().misses;
  }

  void reset_pipeline() {
    pipeline = std::make_unique<Pipeline>(*model, options, *store, epoch, jobs, digests);
  }

  [[nodiscard]] StageCounters lifetime_stages() const {
    return add(retired, pipeline->stage_diagnostics());
  }
};

namespace {

bool any_structural(const std::vector<Delta>& deltas) {
  return std::any_of(deltas.begin(), deltas.end(),
                     [](const Delta& d) { return is_structural(d); });
}

}  // namespace

Session::Session(System system, TwcaOptions options, ArtifactStore& store, int jobs)
    : Session(std::move(system), options, store, jobs, store.begin_epoch()) {}

Session::Session(System system, TwcaOptions options, ArtifactStore& store, int jobs,
                 std::uint64_t epoch)
    : Session(std::move(system), options, store, jobs, epoch, nullptr) {}

Session::Session(System system, TwcaOptions options, ArtifactStore& store, int jobs,
                 std::uint64_t epoch, std::shared_ptr<const ModelDigests> digests)
    : impl_(std::make_unique<Impl>()) {
  impl_->store = &store;
  impl_->options = options;
  impl_->jobs = jobs;
  impl_->model = std::make_shared<const System>(std::move(system));
  impl_->set_digests(digests != nullptr ? std::move(digests)
                                        : std::make_shared<const ModelDigests>(*impl_->model));
  impl_->epoch = epoch;
  impl_->reset_pipeline();
}

Session::~Session() = default;
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;

const System& Session::system() const { return *impl_->model; }
const TwcaOptions& Session::options() const { return impl_->options; }
std::uint64_t Session::revision() const { return impl_->revision; }

Status Session::apply(const std::vector<Delta>& deltas) {
  Expected<System> mutated = mutate(*impl_->model, deltas);
  if (!mutated) return mutated.status();

  // Commit: retire the current pipeline's telemetry, swap the model in,
  // and open a new store epoch so artifacts computed before this batch
  // classify as hits from now on.
  impl_->retired = impl_->lifetime_stages();
  impl_->pipeline.reset();
  auto model = std::make_shared<const System>(std::move(mutated).value());
  // A structural batch rebuilds the digest table; a priority-only batch
  // derives it from the current one.  The old table stays intact for
  // any speculative session still holding it.
  impl_->set_digests(std::make_shared<const ModelDigests>(
      any_structural(deltas) ? ModelDigests(*model)
                             : impl_->digests->derive_priorities(*impl_->model, *model)));
  impl_->model = std::move(model);
  impl_->epoch = impl_->store->begin_epoch();
  impl_->reset_pipeline();
  ++impl_->revision;
  impl_->deltas_applied += static_cast<long long>(deltas.size());
  return Status::ok();
}

Session Session::speculate(const std::vector<Delta>& deltas, int jobs) const {
  Expected<System> mutated = mutate(*impl_->model, deltas);
  WHARF_EXPECT(mutated.has_value(),
               "invalid speculative delta batch: " << mutated.status().to_string());
  // Priority-only candidates derive their digest table from this
  // session's; structural candidates build their own.
  std::shared_ptr<const ModelDigests> digests;
  if (!any_structural(deltas)) {
    digests = std::make_shared<const ModelDigests>(
        impl_->digests->derive_priorities(*impl_->model, mutated.value()));
  }
  return Session(std::move(mutated).value(), impl_->options, *impl_->store,
                 jobs < 0 ? impl_->jobs : jobs, impl_->store->begin_epoch(),
                 std::move(digests));
}

QueryResult Session::execute(const Query& query, std::size_t concurrent_tasks) {
  impl_->queries_served.fetch_add(1, std::memory_order_relaxed);
  return std::visit(
      [&](const auto& q) -> QueryResult {
        using Q = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<Q, LatencyQuery>) {
          return run_latency(*impl_->pipeline, q);
        } else if constexpr (std::is_same_v<Q, DmmQuery>) {
          return run_dmm(*impl_->pipeline, q);
        } else if constexpr (std::is_same_v<Q, WeaklyHardQuery>) {
          return run_weakly_hard(*impl_->pipeline, q);
        } else if constexpr (std::is_same_v<Q, SimulationQuery>) {
          return run_simulation(*impl_->pipeline, q);
        } else if constexpr (std::is_same_v<Q, PathLatencyQuery>) {
          return run_path_latency(*impl_->pipeline, q);
        } else if constexpr (std::is_same_v<Q, PathDmmQuery>) {
          return run_path_dmm(*impl_->pipeline, q);
        } else {
          return run_search(*impl_->store, impl_->jobs, concurrent_tasks, *impl_->model,
                            impl_->options, q);
        }
      },
      query);
}

QueryResult Session::query(const Query& query) { return execute(query, 1); }

AnalysisReport Session::collect(std::vector<QueryResult> results) {
  AnalysisReport report;
  report.system = impl_->model->name();
  report.results = std::move(results);
  report.diagnostics.system_hash = fingerprint();

  const StageCounters lifetime = impl_->lifetime_stages();
  report.diagnostics.stages = sub(lifetime, impl_->reported);
  impl_->reported = lifetime;

  const StageDiagnostics sum = total(report.diagnostics.stages);
  report.diagnostics.cache_hits = sum.hits;
  report.diagnostics.cache_misses = sum.misses;
  report.diagnostics.cache_shared = sum.shared;
  report.diagnostics.cache_hit = sum.lookups > 0 && sum.misses == 0 && sum.shared == 0;
  report.diagnostics.queries_failed = static_cast<std::size_t>(
      std::count_if(report.results.begin(), report.results.end(),
                    [](const QueryResult& r) { return !r.ok(); }));
  for (const QueryResult& r : report.results) {
    if (const auto* search = std::get_if<SearchAnswer>(&r.answer)) {
      report.diagnostics.search_evaluations += search->stats.evaluations;
      const StageDiagnostics searched = total(search->stats.stages);
      report.diagnostics.search_hits += searched.hits;
      report.diagnostics.search_misses += searched.misses;
      report.diagnostics.search_shared += searched.shared;
    }
  }
  return report;
}

AnalysisReport Session::serve(const std::vector<Query>& queries) {
  std::vector<QueryResult> results(queries.size());
  util::parallel_for_index(queries.size(), impl_->jobs, [&](std::size_t q) {
    results[q] = execute(queries[q], queries.size());
  });
  return collect(std::move(results));
}

LatencyResult Session::latency(int chain, bool without_overload) {
  return without_overload ? *impl_->pipeline->latency_without_overload(chain)
                          : *impl_->pipeline->latency(chain);
}

DmmResult Session::dmm(int chain, Count k) { return impl_->pipeline->dmm(chain, k); }

std::vector<search::Objective> Session::evaluate_candidates(
    const std::vector<std::vector<Priority>>& candidates, Count k) {
  WHARF_EXPECT(k >= 1, "evaluation horizon k must be >= 1, got " << k);
  // Same construction as run_search: candidates speculate off a base
  // session against the shared store, so a sweep worker's units reuse
  // every artifact earlier units (or a warm snapshot) already solved.
  const search::EvaluationSpec spec{k, {}};
  search::PipelineEvaluator evaluator(*impl_->model, spec, impl_->options, *impl_->store,
                                      impl_->jobs);
  return evaluator.evaluate_many(candidates);
}

std::uint64_t Session::fingerprint() const {
  return util::fnv1a64(model_fingerprint(*impl_->model, impl_->options));
}

const ModelDigests& Session::digests() const { return *impl_->digests; }

SessionStats Session::stats() const {
  SessionStats out;
  out.revision = impl_->revision;
  out.deltas_applied = impl_->deltas_applied;
  out.queries_served = impl_->queries_served.load(std::memory_order_relaxed);
  out.stages = impl_->lifetime_stages();
  out.slices = impl_->digest_stats;
  return out;
}

}  // namespace wharf
