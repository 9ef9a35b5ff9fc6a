// search_warm: `wharf search --strategy hill` as a design loop runs it.
// Hill-climb restarts go round-robin over four seeded 8-chain systems;
// every system has its own PipelineEvaluator (jobs=1) and all four share
// one default-budget ArtifactStore, which they overfill, so the store
// evicts.  An op is one evaluator call: a restart's start point or one
// pairwise-swap neighbourhood.  Closed loop, one thread.
//
// One restart takes about a second, so a 16-restart climb of one system
// would fill a whole run; the loop climbs each system one restart at a
// time instead, with a fresh seeded starting point per restart, so all
// four systems compete for the store within every run.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/session.hpp"
#include "inputs.hpp"
#include "search/priority_search.hpp"

namespace perfbench {

using namespace wharf;

namespace {

constexpr const char* kOp = "search.step";
constexpr Count kK = 10;

/// Thrown by the timing decorator once the run's time is up; unwinds
/// the climb in progress (it holds no state worth keeping).
struct TimeUp {};

/// Per-op store counters of the traced run, summed over traced ops.
struct Counters {
  std::array<StageDiagnostics, kArtifactStageCount> stages{};
  double slice_hits = 0;
  double slice_misses = 0;
  double evictions = 0;
  double candidates = 0;
};

/// The timing Evaluator decorator: one op per call into the wrapped
/// evaluator.  In traced blocks it records the call as a span, adds the
/// store counter deltas, and re-runs the call's candidates through
/// Session::speculate plus the scoring queries (outside the op's time)
/// to split a candidate's cost between the two.
class TimedEvaluator final : public search::Evaluator {
 public:
  TimedEvaluator(search::PipelineEvaluator& inner, ArtifactStore& store)
      : inner_(inner), store_(store) {}

  struct Run {
    std::vector<Op>* ops = nullptr;
    const TraceSchedule* schedule = nullptr;
    std::int64_t stop_ns = 0;
    Tracer* tracer = nullptr;  ///< null outside traced runs
    Counters* counters = nullptr;
    double* replay_s = nullptr;
    long long* candidates = nullptr;
  };
  void attach(const Run& run) { run_ = run; }

  [[nodiscard]] const System& base() const override { return inner_.base(); }
  [[nodiscard]] search::EvaluatorStats stats() const override { return inner_.stats(); }

  [[nodiscard]] search::Objective evaluate(const std::vector<Priority>& priorities) override {
    search::Objective out;
    timed({priorities}, [&] { out = inner_.evaluate(priorities); });
    return out;
  }

  [[nodiscard]] std::vector<search::Objective> evaluate_many(
      const std::vector<std::vector<Priority>>& candidates) override {
    std::vector<search::Objective> out;
    timed(candidates, [&] { out = inner_.evaluate_many(candidates); });
    return out;
  }

 private:
  template <class F>
  void timed(const std::vector<std::vector<Priority>>& candidates, F&& call) {
    if (now_ns() >= run_.stop_ns) throw TimeUp{};
    const long long op = static_cast<long long>(run_.ops->size());
    const bool traced = run_.tracer != nullptr && run_.schedule->traced_now();
    search::EvaluatorStats before;
    std::size_t evictions_before = 0;
    if (traced) {
      before = inner_.stats();
      evictions_before = store_.stats().evictions;
    }
    const std::int64_t t0 = now_ns();
    call();
    const std::int64_t t1 = now_ns();
    run_.ops->push_back(Op{static_cast<double>(t1 - t0) / 1e6, true, traced});
    *run_.candidates += static_cast<long long>(candidates.size());
    if (!traced) return;

    run_.tracer->record(kOp, op, t0, t1);
    const search::EvaluatorStats after = inner_.stats();
    Counters& c = *run_.counters;
    for (std::size_t s = 0; s < kArtifactStageCount; ++s) {
      c.stages[s].lookups += after.stages[s].lookups - before.stages[s].lookups;
      c.stages[s].hits += after.stages[s].hits - before.stages[s].hits;
      c.stages[s].misses += after.stages[s].misses - before.stages[s].misses;
      c.stages[s].shared += after.stages[s].shared - before.stages[s].shared;
    }
    c.slice_hits += static_cast<double>(after.slices.hits - before.slices.hits);
    c.slice_misses += static_cast<double>(after.slices.misses - before.slices.misses);
    c.evictions += static_cast<double>(store_.stats().evictions - evictions_before);
    c.candidates += static_cast<double>(candidates.size());
    replay(candidates, op);
    *run_.replay_s += static_cast<double>(now_ns() - t1) / 1e9;
  }

  /// Re-scores `candidates` the way PipelineEvaluator does, on a probe
  /// session of the same base system and store, timing speculate() and
  /// the scoring queries apart.
  void replay(const std::vector<std::vector<Priority>>& candidates, long long op) {
    const System& base = inner_.base();
    if (!probe_) {
      probe_.emplace(base, TwcaOptions{}, store_, 1);
      for (const Chain& chain : base.chains()) {
        for (const Task& task : chain.tasks()) names_.push_back(chain.name() + "." + task.name);
      }
      for (const int c : base.regular_indices()) {
        if (base.chain(c).deadline().has_value()) targets_.push_back(c);
      }
    }
    const std::vector<Priority> base_priorities = base.flat_priorities();
    for (const std::vector<Priority>& priorities : candidates) {
      std::vector<Delta> deltas;
      for (std::size_t i = 0; i < priorities.size(); ++i) {
        if (priorities[i] != base_priorities[i]) {
          deltas.push_back(SetPriorityDelta{names_[i], priorities[i]});
        }
      }
      std::optional<Session> candidate;
      {
        const ScopedSpan span(*run_.tracer, "engine.speculate", op);
        candidate.emplace(probe_->speculate(deltas, 1));
      }
      const ScopedSpan span(*run_.tracer, "engine.candidate_query", op);
      for (const int c : targets_) {
        (void)candidate->dmm(c, kK);
        (void)candidate->latency(c);
      }
    }
  }

  search::PipelineEvaluator& inner_;
  ArtifactStore& store_;
  Run run_;
  std::optional<Session> probe_;
  std::vector<std::string> names_;
  std::vector<int> targets_;
};

/// Seed of restart `round` on system `system`.
std::uint64_t climb_seed(std::uint64_t seed, long long round, int system) {
  return seed * 1'000'003ULL + static_cast<std::uint64_t>(round) * 31ULL +
         static_cast<std::uint64_t>(system);
}

struct State {
  std::vector<System> systems;
  std::unique_ptr<ArtifactStore> store;
  std::vector<std::unique_ptr<search::PipelineEvaluator>> evaluators;
  std::vector<std::unique_ptr<TimedEvaluator>> timed;
};

/// Builds the workload state: the systems, the shared store, and an
/// evaluator per system, whose start neighbourhood warms the store.
void set_up(State& state, std::uint64_t seed) {
  state.systems = search_warm_inputs(seed);
  state.store = std::make_unique<ArtifactStore>();
  for (const System& system : state.systems) {
    state.evaluators.push_back(std::make_unique<search::PipelineEvaluator>(
        system, search::EvaluationSpec{kK, {}}, TwcaOptions{}, *state.store, 1));
    state.timed.push_back(std::make_unique<TimedEvaluator>(*state.evaluators.back(), *state.store));
    // Warm the store with the neighbourhood of the given assignment.
    const std::vector<Priority> nominal = system.flat_priorities();
    std::vector<std::vector<Priority>> neighbourhood;
    for (std::size_t i = 0; i < nominal.size(); ++i) {
      for (std::size_t j = i + 1; j < nominal.size(); ++j) {
        neighbourhood.push_back(nominal);
        std::swap(neighbourhood.back()[i], neighbourhood.back()[j]);
      }
    }
    (void)state.evaluators.back()->evaluate_many(neighbourhood);
  }
}

}  // namespace

double time_search_warm_setup(const Args& args) {
  State state;
  const std::int64_t start = now_ns();
  set_up(state, args.seed);
  return static_cast<double>(now_ns() - start) / 1e9;
}

Result run_search_warm(const Args& args) {
  // setup_s comes from set-ups in child processes, one now and one a
  // second in the loop (see kResetupNs), so the climbs keep their warm
  // store and a set-up's memory stays out of peak_rss_mb.
  std::vector<double> setup_times{timed_setup_in_child(args)};
  State state;
  set_up(state, args.seed);

  Result result;
  std::vector<Op> ops;
  Tracer tracer;
  Counters counters;
  // Loop time that belongs to no op: the replays of a traced run and the
  // repeated set-ups of an untraced one.
  double replay_s = 0;
  long long candidates = 0;
  const TraceSchedule schedule(args.trace);
  const std::int64_t start = now_ns();
  const std::int64_t stop = start + static_cast<std::int64_t>(args.seconds * 1e9);
  TimedEvaluator::Run run{&ops,
                          &schedule,
                          stop,
                          args.trace ? &tracer : nullptr,
                          &counters,
                          &replay_s,
                          &candidates};
  for (auto& timed : state.timed) timed->attach(run);

  // The first restart of system 0 is checked against the same climb
  // over the reference evaluator after the run.
  std::optional<search::SearchResult> checked_climb;
  long long round = 0;
  std::int64_t next_setup = start + kResetupNs;
  try {
    for (;; ++round) {
      for (int s = 0; s < kSearchSystems; ++s) {
        search::HillClimbOptions options;
        options.restarts = 1;
        options.seed = climb_seed(args.seed, round, s);
        search::SearchResult climb = search::hill_climb(*state.timed[s], options);
        if (s == 0 && !checked_climb) checked_climb = std::move(climb);
        const std::int64_t t0 = now_ns();
        if (!args.trace && t0 >= next_setup && t0 < stop) {
          // One more set-up (see kResetupNs), in a child process: the
          // climbs keep their warm store and the run its peak RSS.
          setup_times.push_back(timed_setup_in_child(args));
          next_setup = now_ns();
          replay_s += static_cast<double>(next_setup - t0) / 1e9;
          next_setup += kResetupNs;
        }
      }
    }
  } catch (const TimeUp&) {
  }
  const std::int64_t end = now_ns();
  const double busy_s = static_cast<double>(end - start) / 1e9 - replay_s;
  const double rss = peak_rss_mb();

  if (!checked_climb) {
    result.mismatch("no climb of system 0 completed within the run");
  } else {
    search::ReferenceEvaluator reference(state.systems[0], search::EvaluationSpec{kK, {}});
    search::HillClimbOptions options;
    options.restarts = 1;
    options.seed = climb_seed(args.seed, 0, 0);
    const search::SearchResult want = search::hill_climb(reference, options);
    if (want.best_priorities != checked_climb->best_priorities ||
        want.best_objective != checked_climb->best_objective ||
        want.evaluations != checked_climb->evaluations) {
      result.mismatch("climb over the pipeline evaluator differs from the reference climb");
      ops.front().ok = false;
    }
  }

  account_ops(result, ops);
  if (!args.trace) {
    add_end_to_end(result, ops, busy_s, candidates, median(setup_times), rss);
    return result;
  }
  std::map<std::string, double> layer;
  const std::vector<double> steps = tracer.each_us(kOp);
  const double traced_ops = static_cast<double>(steps.size());
  double lookups = 0;
  double hits = 0;
  for (std::size_t s = 0; s < kArtifactStageCount; ++s) {
    layer[store_metric(s, "hits")] = static_cast<double>(counters.stages[s].hits) / traced_ops;
    layer[store_metric(s, "misses")] = static_cast<double>(counters.stages[s].misses) / traced_ops;
    layer[store_metric(s, "shared")] = static_cast<double>(counters.stages[s].shared) / traced_ops;
    lookups += static_cast<double>(counters.stages[s].lookups);
    hits += static_cast<double>(counters.stages[s].hits);
  }
  layer["search.step_us"] = median(steps);
  layer["search.candidates_per_step"] = counters.candidates / traced_ops;
  layer["engine.speculate_us"] = median(tracer.each_us("engine.speculate"));
  layer["engine.candidate_query_us"] = median(tracer.each_us("engine.candidate_query"));
  layer["engine.store_lookups"] = lookups / traced_ops;
  layer["engine.store_hit_ratio"] = lookups > 0 ? hits / lookups : 0;
  layer["engine.slice_hits"] = counters.slice_hits / traced_ops;
  layer["engine.slice_misses"] = counters.slice_misses / traced_ops;
  const double slices = counters.slice_hits + counters.slice_misses;
  layer["engine.slice_reuse"] = slices > 0 ? counters.slice_hits / slices : 0;
  layer["engine.evictions"] = counters.evictions / traced_ops;
  layer["engine.resident_bytes"] = static_cast<double>(state.store->stats().resident_bytes);
  add_trace_summary(result, ops, schedule.seconds_in(false, end),
                    schedule.seconds_in(true, end) - replay_s, tracer, kOp);
  add_per_layer(result, layer);
  tracer.write_chrome_trace(trace_path(args));
  return result;
}

}  // namespace perfbench
