#include "search/priority_search.hpp"

#include <algorithm>
#include <random>
#include <utility>

#include "engine/session.hpp"
#include "gen/random_systems.hpp"
#include "util/expect.hpp"
#include "util/worker_pool.hpp"

namespace wharf::search {

namespace {

/// Resolves (and validates) the evaluation targets of `spec` against
/// `system`: explicit indices, or every non-overload chain with a
/// deadline.  The eligible set is invariant under priority permutation
/// (with_priorities changes neither kinds nor deadlines), so one
/// resolution serves every candidate.
std::vector<int> resolve_targets(const System& system, const EvaluationSpec& spec) {
  WHARF_EXPECT(spec.k >= 1, "evaluation horizon k must be >= 1, got " << spec.k);
  std::vector<int> targets = spec.targets;
  if (targets.empty()) {
    for (int c : system.regular_indices()) {
      if (system.chain(c).deadline().has_value()) targets.push_back(c);
    }
  }
  WHARF_EXPECT(!targets.empty(), "no evaluable chains (need non-overload chains with deadlines)");
  return targets;
}

// The two candidate enumerations.  exhaustive_candidates/random_candidates
// materialize them for shard planners and exhaustive_search/random_search
// score them block by block, so the sweep's bit-identity contract rests on
// this one definition of each order.

/// Calls emit(candidate) for every permutation of the base priorities:
/// sorted multiset first, then std::next_permutation order.  Throws
/// when the permutation count exceeds `max_permutations`.
template <typename Emit>
void for_each_exhaustive(const System& base, long long max_permutations, Emit&& emit) {
  std::vector<Priority> priorities = base.flat_priorities();
  std::sort(priorities.begin(), priorities.end());
  long long permutations = 1;
  for (std::size_t i = 2; i <= priorities.size(); ++i) {
    permutations *= static_cast<long long>(i);
    WHARF_EXPECT(permutations <= max_permutations,
                 "exhaustive search over " << priorities.size()
                                           << " tasks exceeds max_permutations="
                                           << max_permutations);
  }
  do {
    emit(priorities);
  } while (std::next_permutation(priorities.begin(), priorities.end()));
}

/// Calls emit(candidate) for `samples` uniformly random permutations,
/// in rng draw order.
template <typename Emit>
void for_each_random(const System& base, int samples, std::uint64_t seed, Emit&& emit) {
  WHARF_EXPECT(samples >= 1, "need at least one sample");
  std::mt19937_64 rng(seed);
  for (int i = 0; i < samples; ++i) emit(gen::shuffled_priorities(base.task_count(), rng));
}

/// Collects an enumeration into one list.
template <typename Enumerate>
std::vector<std::vector<Priority>> collect(Enumerate&& enumerate) {
  std::vector<std::vector<Priority>> candidates;
  enumerate([&](const std::vector<Priority>& c) { candidates.push_back(c); });
  return candidates;
}

/// Scores an enumeration in blocks of evaluate_many(), folding each
/// block in candidate order: peak memory stays O(block * n) for any
/// budget, and the result equals folding the materialized list.
template <typename Enumerate>
SearchResult blocked_search(Evaluator& evaluator, Enumerate&& enumerate) {
  constexpr std::size_t kBlock = 128;
  SearchResult result;
  bool have_best = false;
  std::vector<std::vector<Priority>> block;
  block.reserve(kBlock);
  const auto flush = [&] {
    const std::vector<Objective> scores = evaluator.evaluate_many(block);
    result.evaluations += static_cast<long long>(block.size());
    fold_scores(block, scores, result, have_best);
    block.clear();
  };
  enumerate([&](const std::vector<Priority>& c) {
    block.push_back(c);
    if (block.size() == kBlock) flush();
  });
  if (!block.empty()) flush();
  return result;
}

/// Per-position majority vote (Boyer–Moore) over a candidate batch: for
/// a pairwise-swap neighbourhood of more than four tasks, exactly the
/// assignment it was built around (each position moves in n-1 of the
/// n(n-1)/2 swaps).  Other batches may vote a non-permutation, which
/// the caller rejects.
std::vector<Priority> batch_centre(const std::vector<std::vector<Priority>>& candidates) {
  std::vector<Priority> centre = candidates.front();
  std::vector<std::size_t> votes(centre.size(), 0);
  for (const std::vector<Priority>& candidate : candidates) {
    if (candidate.size() != centre.size()) continue;
    for (std::size_t i = 0; i < centre.size(); ++i) {
      if (votes[i] == 0) {
        centre[i] = candidate[i];
        votes[i] = 1;
      } else if (centre[i] == candidate[i]) {
        ++votes[i];
      } else {
        --votes[i];
      }
    }
  }
  return centre;
}

}  // namespace

void fold_scores(const std::vector<std::vector<Priority>>& candidates,
                 const std::vector<Objective>& scores, SearchResult& result, bool& have_best) {
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!have_best || scores[i] < result.best_objective) {
      have_best = true;
      result.best_objective = scores[i];
      result.best_priorities = candidates[i];
    }
  }
}

std::vector<std::vector<Priority>> exhaustive_candidates(const System& base,
                                                         long long max_permutations) {
  return collect([&](auto&& emit) { for_each_exhaustive(base, max_permutations, emit); });
}

std::vector<std::vector<Priority>> random_candidates(const System& base, int samples,
                                                     std::uint64_t seed) {
  return collect([&](auto&& emit) { for_each_random(base, samples, seed, emit); });
}

// ---------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------

Evaluator::~Evaluator() = default;

std::vector<Objective> Evaluator::evaluate_many(
    const std::vector<std::vector<Priority>>& candidates) {
  std::vector<Objective> scores(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) scores[i] = evaluate(candidates[i]);
  return scores;
}

// ---------------------------------------------------------------------
// PipelineEvaluator
// ---------------------------------------------------------------------

PipelineEvaluator::PipelineEvaluator(System base, EvaluationSpec spec, TwcaOptions options,
                                     ArtifactStore& store, int jobs)
    : base_(std::move(base)),
      spec_(std::move(spec)),
      targets_(resolve_targets(base_, spec_)),
      options_(options),
      store_(&store),
      jobs_(jobs),
      anchor_(std::make_unique<Session>(base_, options_, *store_, 1)),
      anchor_priorities_(base_.flat_priorities()),
      stats_{0, {}, anchor_->stats().slices} {}

PipelineEvaluator::PipelineEvaluator(System base, EvaluationSpec spec, TwcaOptions options,
                                     std::size_t cache_bytes)
    : base_(std::move(base)),
      spec_(std::move(spec)),
      targets_(resolve_targets(base_, spec_)),
      options_(options),
      owned_store_(std::make_unique<ArtifactStore>(cache_bytes)),
      store_(owned_store_.get()),
      anchor_(std::make_unique<Session>(base_, options_, *store_, 1)),
      anchor_priorities_(base_.flat_priorities()),
      stats_{0, {}, anchor_->stats().slices} {}

PipelineEvaluator::~PipelineEvaluator() = default;

const System& PipelineEvaluator::base() const { return base_; }

Objective PipelineEvaluator::evaluate(const std::vector<Priority>& priorities) {
  // Candidate = priority vector.  speculate() opens the candidate's own
  // store epoch — artifacts resolved by *earlier* candidates (or earlier
  // engine requests) classify as hits, which is what makes neighborhood
  // reuse observable in stats() — derives the candidate's digest table
  // from the anchor's, recomputing only the digests of the moved chains,
  // and shares the anchor's arrival tables.
  Session candidate = anchor_->speculate(priorities);

  Objective obj;
  for (const int c : targets_) {
    const DmmResult r = candidate.dmm(c, spec_.k);
    if (r.dmm > 0) ++obj.chains_missing;
    obj.total_dmm += r.dmm;
    const LatencyResult lat = candidate.latency(c);
    obj.total_wcl = sat_add(obj.total_wcl,
                            lat.bounded ? lat.wcl : options_.analysis.divergence_guard);
  }

  const SessionStats diag = candidate.stats();
  {
    const util::MutexLock guard(stats_mutex_);
    ++stats_.evaluations;
    stats_.stages = add(stats_.stages, diag.stages);
    stats_.slices.hits += diag.slices.hits;
    stats_.slices.misses += diag.slices.misses;
  }
  return obj;
}

void PipelineEvaluator::move_anchor(const std::vector<Priority>& priorities) {
  if (priorities == anchor_priorities_ ||
      !std::is_permutation(priorities.begin(), priorities.end(), anchor_priorities_.begin(),
                           anchor_priorities_.end())) {
    return;  // already there, or not a valid assignment: keep the anchor
  }
  anchor_ = std::make_unique<Session>(anchor_->speculate(priorities, 1));
  anchor_priorities_ = priorities;
  const DigestStats derived = anchor_->stats().slices;
  const util::MutexLock guard(stats_mutex_);
  stats_.slices.hits += derived.hits;
  stats_.slices.misses += derived.misses;
}

std::vector<Objective> PipelineEvaluator::evaluate_many(
    const std::vector<std::vector<Priority>>& candidates) {
  if (!candidates.empty()) move_anchor(batch_centre(candidates));
  std::vector<Objective> scores(candidates.size());
  // Each index writes its own slot and a candidate's objective is a
  // pure function of its priorities, so scores are identical for any
  // jobs.
  util::parallel_for_index(candidates.size(), jobs_, [&](std::size_t i) {
    scores[i] = evaluate(candidates[i]);
  });
  return scores;
}

EvaluatorStats PipelineEvaluator::stats() const {
  const util::MutexLock guard(stats_mutex_);
  return stats_;
}

// ---------------------------------------------------------------------
// ReferenceEvaluator
// ---------------------------------------------------------------------

ReferenceEvaluator::ReferenceEvaluator(System base, EvaluationSpec spec, TwcaOptions options)
    : base_(std::move(base)),
      spec_(std::move(spec)),
      targets_(resolve_targets(base_, spec_)),
      options_(options) {}

const System& ReferenceEvaluator::base() const { return base_; }

Objective ReferenceEvaluator::evaluate(const std::vector<Priority>& priorities) {
  const TwcaAnalyzer analyzer{base_.with_priorities(priorities), options_};
  Objective obj;
  for (const int c : targets_) {
    const DmmResult r = analyzer.dmm(c, spec_.k);
    if (r.dmm > 0) ++obj.chains_missing;
    obj.total_dmm += r.dmm;
    const LatencyResult& lat = analyzer.latency(c);
    obj.total_wcl = sat_add(obj.total_wcl,
                            lat.bounded ? lat.wcl : options_.analysis.divergence_guard);
  }
  ++evaluations_;
  return obj;
}

EvaluatorStats ReferenceEvaluator::stats() const {
  EvaluatorStats stats;
  stats.evaluations = evaluations_;
  return stats;
}

// ---------------------------------------------------------------------
// Free functions
// ---------------------------------------------------------------------

SearchResult exhaustive_search(Evaluator& evaluator, long long max_permutations) {
  return blocked_search(evaluator, [&](auto&& emit) {
    for_each_exhaustive(evaluator.base(), max_permutations, emit);
  });
}

SearchResult random_search(Evaluator& evaluator, int samples, std::uint64_t seed) {
  return blocked_search(
      evaluator, [&](auto&& emit) { for_each_random(evaluator.base(), samples, seed, emit); });
}

SearchResult hill_climb(Evaluator& evaluator, const HillClimbOptions& options) {
  WHARF_EXPECT(options.restarts >= 1, "need at least one restart");
  WHARF_EXPECT(options.max_steps >= 1, "need at least one step");
  std::mt19937_64 rng(options.seed);
  const int n = evaluator.base().task_count();

  SearchResult result;
  bool have_best = false;

  for (int restart = 0; restart < options.restarts; ++restart) {
    std::vector<Priority> current = gen::shuffled_priorities(n, rng);
    Objective current_obj = evaluator.evaluate(current);
    ++result.evaluations;

    for (int step = 0; step < options.max_steps; ++step) {
      // Steepest ascent: the whole pairwise-swap neighborhood scored as
      // one batch, then scanned in (i, j) order — identical to the
      // sequential swap-evaluate-swap-back loop for any jobs value.
      std::vector<std::vector<Priority>> neighborhood;
      neighborhood.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
          std::vector<Priority> neighbor = current;
          std::swap(neighbor[static_cast<std::size_t>(i)],
                    neighbor[static_cast<std::size_t>(j)]);
          neighborhood.push_back(std::move(neighbor));
        }
      }
      const std::vector<Objective> scores = evaluator.evaluate_many(neighborhood);
      result.evaluations += static_cast<long long>(neighborhood.size());

      Objective best_neighbor_obj = current_obj;
      std::ptrdiff_t best_index = -1;
      for (std::size_t c = 0; c < scores.size(); ++c) {
        if (scores[c] < best_neighbor_obj) {
          best_neighbor_obj = scores[c];
          best_index = static_cast<std::ptrdiff_t>(c);
        }
      }
      if (best_index < 0) break;  // local optimum
      current = std::move(neighborhood[static_cast<std::size_t>(best_index)]);
      current_obj = best_neighbor_obj;
    }

    if (!have_best || current_obj < result.best_objective) {
      have_best = true;
      result.best_objective = current_obj;
      result.best_priorities = current;
    }
  }
  return result;
}

}  // namespace wharf::search
