/// \file priority_search.hpp
/// Priority-assignment synthesis for weakly-hard systems.
///
/// The paper's Experiment 2 demonstrates that the priority assignment
/// decides both schedulability and the quality of the deadline miss
/// model; this module turns that observation into a design tool: search
/// the space of priority permutations for the assignment with the best
/// weakly-hard guarantees.  Three strategies with one shared objective:
///
///  * exhaustive enumeration (exact, factorial — small systems only);
///  * random sampling (the paper's Experiment 2 loop, kept as baseline);
///  * steepest-ascent hill climbing over pairwise priority swaps with
///    random restarts (scales to realistic task counts).
///
/// Scoring goes through the `Evaluator` boundary.  The production
/// backend, `PipelineEvaluator`, drives the Engine's staged pipeline
/// against a shared ArtifactStore: a candidate re-solves only the
/// artifacts whose model slices its priorities changed (a pairwise swap
/// typically recomputes ~2 of 2·N busy windows), neighborhoods are
/// scored as one work-pool-parallel batch, and identical concurrent
/// candidates share computation via the store's single-flight
/// resolve().  Results are bit-identical to sequential standalone
/// evaluation for any jobs value — `ReferenceEvaluator` (one
/// TwcaAnalyzer per candidate, no reuse) stays around as the parity
/// reference and cold benchmark baseline.

#ifndef WHARF_SEARCH_PRIORITY_SEARCH_HPP
#define WHARF_SEARCH_PRIORITY_SEARCH_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/model_slice.hpp"
#include "core/twca.hpp"
#include "engine/artifact_store.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "engine/pipeline.hpp"

namespace wharf {
class Session;  // engine/session.hpp
}  // namespace wharf

namespace wharf::search {

/// Lexicographic quality of one priority assignment; *smaller is better*
/// and comparisons go field by field in declaration order:
/// fewer chains missing deadlines, then fewer total misses per horizon,
/// then lower total latency.
struct Objective {
  Count chains_missing = 0;  ///< #evaluated chains with dmm(k) > 0
  Count total_dmm = 0;       ///< sum of dmm(k) over evaluated chains
  Time total_wcl = 0;        ///< sum of WCL (divergence counts as a large penalty)

  friend auto operator<=>(const Objective&, const Objective&) = default;
};

/// What to evaluate: which chains (default: all non-overload chains with
/// a deadline) and at which dmm horizon k.
struct EvaluationSpec {
  Count k = 10;
  /// Chain indices to include; empty = all non-overload chains that have
  /// a deadline.
  std::vector<int> targets;
};

/// Telemetry of one Evaluator: how many candidates it scored and how the
/// artifact store served their stage lookups (all zero for backends that
/// do not cache).  `evaluations` counts every scored candidate over the
/// evaluator's lifetime, including nominal/baseline scores — search
/// algorithms count their own evaluations in SearchResult.
struct EvaluatorStats {
  long long evaluations = 0;
  /// Store lookups per stage over every scored candidate (total() sums
  /// them: hits were served from the store, misses computed afresh,
  /// shared joined an in-flight compute).
  StageCounters stages{};
  /// Digest-table reuse over every candidate and anchor session the
  /// evaluator derived (digests carried over vs. computed; zero for
  /// backends that do not cache).
  DigestStats slices;
};

/// Scoring backend boundary: search algorithms see candidates in, one
/// Objective per candidate out.  Implementations must be pure in the
/// candidate — equal priorities yield equal objectives regardless of
/// history or concurrency — which is what makes batched scoring
/// bit-identical to sequential evaluation.
class Evaluator {
 public:
  /// Virtual: backends are owned and driven through this interface.
  virtual ~Evaluator();

  /// The base system whose task priorities are being searched.
  [[nodiscard]] virtual const System& base() const = 0;

  /// Scores one candidate assignment (flat task order; applied via
  /// System::with_priorities).
  [[nodiscard]] virtual Objective evaluate(const std::vector<Priority>& priorities) = 0;

  /// Scores a whole neighborhood, index-aligned with `candidates`.
  /// Backends may parallelize; the result is bit-identical to calling
  /// evaluate() element by element.  Default: the sequential loop.
  [[nodiscard]] virtual std::vector<Objective> evaluate_many(
      const std::vector<std::vector<Priority>>& candidates);

  /// Lifetime telemetry: candidates scored and store lookups per stage.
  [[nodiscard]] virtual EvaluatorStats stats() const = 0;
};

/// The production backend: scores candidates through wharf::Session —
/// each candidate is a *delta batch* (one SetPriorityDelta per task the
/// candidate moves) speculated off an anchor session against the shared
/// ArtifactStore.  Every candidate session opens its own store epoch, so
/// reuse across candidates is observable as hits in stats().  The
/// anchor starts at the base assignment and evaluate_many() moves it to
/// the batch's centre (the assignment a pairwise-swap neighbourhood is
/// built around), so a candidate's digest table derives from a parent
/// one swap away: O(moved chains × m) digests per candidate.  Scores
/// never depend on the anchor.  evaluate_many() scores candidates on a
/// worker pool (`jobs`), with concurrent identical slices shared through
/// the store's single-flight resolve().  Single caller: evaluate() and
/// evaluate_many() must not run concurrently on one evaluator.
class PipelineEvaluator final : public Evaluator {
 public:
  /// Shares `store` (must outlive the evaluator) — the Engine passes its
  /// own store so searches warm, and profit from, the same artifacts as
  /// every other query.  `jobs` sizes evaluate_many parallelism (0 = all
  /// hardware threads).
  PipelineEvaluator(System base, EvaluationSpec spec, TwcaOptions options,
                    ArtifactStore& store, int jobs = 1);

  /// Owns a private store with byte budget `cache_bytes` (0 = unlimited).
  explicit PipelineEvaluator(System base, EvaluationSpec spec = {}, TwcaOptions options = {},
                             std::size_t cache_bytes = ArtifactStore::kDefaultByteBudget);

  /// Defined where Session is complete; the anchor session is destroyed
  /// before an owned store.
  ~PipelineEvaluator() override;

  /// The base system (see Evaluator::base).
  [[nodiscard]] const System& base() const override;
  /// Scores one candidate as a speculated delta batch; the ILP of each
  /// target splits across `jobs`.
  [[nodiscard]] Objective evaluate(const std::vector<Priority>& priorities) override;
  /// Moves the anchor to the batch's centre, then scores every candidate
  /// on the worker pool (bit-identical to evaluate() in turn).
  [[nodiscard]] std::vector<Objective> evaluate_many(
      const std::vector<std::vector<Priority>>& candidates) override;
  /// Thread-safe snapshot of the counters summed over every candidate.
  [[nodiscard]] EvaluatorStats stats() const override;

  /// The store candidates resolve against (shared or owned).
  [[nodiscard]] const ArtifactStore& store() const { return *store_; }

 private:
  [[nodiscard]] Objective score(const std::vector<Priority>& priorities, int ilp_jobs);
  /// Re-anchors candidate derivation at `priorities` when it is a valid
  /// assignment (a permutation of the base priorities); else a no-op.
  void move_anchor(const std::vector<Priority>& priorities);

  System base_;
  EvaluationSpec spec_;
  std::vector<int> targets_;
  TwcaOptions options_;
  std::unique_ptr<ArtifactStore> owned_store_;  ///< engaged by the owning ctor
  ArtifactStore* store_ = nullptr;
  int jobs_ = 1;
  std::vector<std::string> task_names_;  ///< dotted "chain.task" per flat index
  /// The session candidates speculate from, and its flat priorities.
  std::unique_ptr<Session> anchor_;
  std::vector<Priority> anchor_priorities_;
  mutable util::Mutex stats_mutex_;
  EvaluatorStats stats_ WHARF_GUARDED_BY(stats_mutex_);
};

/// The pre-pipeline reference backend: a standalone TwcaAnalyzer per
/// candidate, no artifact reuse, strictly sequential.  Kept as the
/// parity oracle of the determinism regression tests and the cold
/// baseline of bench_priority_search; production callers want
/// PipelineEvaluator.
class ReferenceEvaluator final : public Evaluator {
 public:
  /// Scores priority assignments of `base` against `spec`.
  explicit ReferenceEvaluator(System base, EvaluationSpec spec = {}, TwcaOptions options = {});

  /// The base system (see Evaluator::base).
  [[nodiscard]] const System& base() const override;
  /// Runs a fresh TwcaAnalyzer over the candidate system.
  [[nodiscard]] Objective evaluate(const std::vector<Priority>& priorities) override;
  /// Evaluation count only; the stage counters stay zero (no store).
  [[nodiscard]] EvaluatorStats stats() const override;

 private:
  System base_;
  EvaluationSpec spec_;
  std::vector<int> targets_;
  TwcaOptions options_;
  long long evaluations_ = 0;
};

/// Scores one system (one priority assignment) through a transient
/// pipeline-backed evaluator.  For loops, construct a PipelineEvaluator
/// once and reuse it — that is what makes neighborhoods cheap.
[[nodiscard]] Objective evaluate_assignment(const System& system, const EvaluationSpec& spec,
                                            const TwcaOptions& options = {});

/// Search outcome: the best priorities found (flat task order, apply via
/// System::with_priorities), their objective and the evaluation count.
struct SearchResult {
  std::vector<Priority> best_priorities;
  Objective best_objective;
  long long evaluations = 0;
};

/// The exact candidate list exhaustive_search() scores, in its exact
/// enumeration order (sorted priority multiset, std::next_permutation).
/// Materialized for shard planners — the distributed sweep slices this
/// list into work units, and merging per-candidate objectives back in
/// index order via fold_scores() reproduces exhaustive_search()'s
/// result bit for bit.  Same factorial guard: throws when the
/// permutation count exceeds `max_permutations`.
[[nodiscard]] std::vector<std::vector<Priority>> exhaustive_candidates(
    const System& base, long long max_permutations = 50'000);

/// The exact candidate list random_search() scores for the same
/// (samples, seed), in rng draw order — the random-strategy counterpart
/// of exhaustive_candidates().
[[nodiscard]] std::vector<std::vector<Priority>> random_candidates(const System& base,
                                                                   int samples,
                                                                   std::uint64_t seed);

/// Folds index-aligned scores into the incumbent exactly like the
/// sequential search loops do: candidates in index order, strict
/// improvement only (ties keep the earlier candidate).  `have_best`
/// threads the "incumbent exists yet" state across calls so a caller can
/// fold block by block; final `result.evaluations` bookkeeping stays
/// with the caller.  This is the merge kernel of the distributed sweep.
void fold_scores(const std::vector<std::vector<Priority>>& candidates,
                 const std::vector<Objective>& scores, SearchResult& result, bool& have_best);

/// Exhaustively scores every permutation of the existing priority set.
/// Throws wharf::InvalidArgument when the permutation count exceeds
/// `max_permutations` (guard against factorial blow-up).
[[nodiscard]] SearchResult exhaustive_search(Evaluator& evaluator,
                                             long long max_permutations = 50'000);

/// Samples `samples` uniformly random permutations (Experiment 2 style).
[[nodiscard]] SearchResult random_search(Evaluator& evaluator, int samples,
                                         std::uint64_t seed);

/// Options of the local search.
struct HillClimbOptions {
  int restarts = 4;             ///< independent random starting points
  int max_steps = 200;          ///< improving steps per restart
  std::uint64_t seed = 1;
};

/// Steepest-ascent hill climbing: from a random permutation, repeatedly
/// applies the pairwise priority swap that improves the objective most,
/// until a local optimum; keeps the best across restarts.  Each
/// neighborhood (all pairwise swaps) is scored as one evaluate_many
/// batch.
[[nodiscard]] SearchResult hill_climb(Evaluator& evaluator,
                                      const HillClimbOptions& options = {});

// ---------------------------------------------------------------------
// Conveniences binding a private pipeline-backed evaluator per call
// ---------------------------------------------------------------------

/// exhaustive_search(Evaluator&, ...) over a private PipelineEvaluator.
[[nodiscard]] SearchResult exhaustive_search(const System& system, const EvaluationSpec& spec,
                                             long long max_permutations = 50'000,
                                             const TwcaOptions& options = {});

/// random_search(Evaluator&, ...) over a private PipelineEvaluator.
[[nodiscard]] SearchResult random_search(const System& system, const EvaluationSpec& spec,
                                         int samples, std::uint64_t seed,
                                         const TwcaOptions& options = {});

/// hill_climb(Evaluator&, ...) over a private PipelineEvaluator.
[[nodiscard]] SearchResult hill_climb(const System& system, const EvaluationSpec& spec,
                                      const HillClimbOptions& options = {},
                                      const TwcaOptions& twca_options = {});

}  // namespace wharf::search

#endif  // WHARF_SEARCH_PRIORITY_SEARCH_HPP
