/// \file twca.hpp
/// Typical Worst-Case Analysis for task chains (paper Section V) — the
/// core contribution: deadline miss models dmm_b(k) via the packing ILP
/// of Theorem 3.

#ifndef WHARF_CORE_TWCA_HPP
#define WHARF_CORE_TWCA_HPP

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/busy_window.hpp"
#include "core/combinations.hpp"
#include "core/system.hpp"
#include "ilp/packing.hpp"

namespace wharf {

/// Which schedulability test classifies combinations (Section V-C).
enum class SchedulabilityCriterion {
  /// The paper's efficient sufficient condition (Eq. 5): a combination is
  /// unschedulable iff its cost exceeds the typical slack theta_b.
  kSufficientEq5,
  /// Exact per-q fixed-point evaluation of Eq. (3); never classifies more
  /// combinations as unschedulable than Eq. 5, so the resulting dmm is at
  /// most the Eq.-5 dmm (ablation: bench_ablation_ilp).
  kExactEq3,
};

/// Knobs of the DMM computation.
struct TwcaOptions {
  AnalysisOptions analysis;
  /// Combination classification test (Section V-C).
  SchedulabilityCriterion criterion = SchedulabilityCriterion::kSufficientEq5;
  /// Cap on combination enumeration (Def. 9 can be exponential).
  std::size_t max_combinations = 1'000'000;
  /// Additionally cap dmm(k) at k (trivially sound; the raw ILP bound can
  /// exceed k for tiny k).
  bool cap_at_k = true;
};

/// Classification of a DMM query outcome.
enum class DmmStatus {
  /// WCL_b <= D_b: the chain never misses; dmm == 0 for every k.
  kAlwaysMeets,
  /// A non-trivial bound was computed via Theorem 3.
  kBounded,
  /// TWCA cannot bound the misses (diverging busy window, negative
  /// typical slack, unbounded delta_plus, ...): dmm(k) = k.
  kNoGuarantee,
};

/// Human-readable status name.
[[nodiscard]] std::string to_string(DmmStatus status);

/// Result of one dmm_b(k) query, with the intermediate quantities the
/// paper reports (useful for tables and debugging).
struct DmmResult {
  Count k = 0;
  /// The deadline miss model value: max misses in k consecutive runs.
  Count dmm = 0;
  DmmStatus status = DmmStatus::kNoGuarantee;
  /// Explanation when status == kNoGuarantee.
  std::string reason;

  // Diagnostics (meaningful for kBounded / kAlwaysMeets):
  Time wcl = 0;           ///< WCL_b (Theorem 2)
  Count K = 0;            ///< K_b (Theorem 2)
  Count n_b = 0;          ///< N_b (Lemma 3)
  Time slack = 0;         ///< theta_b (Eq. 5 threshold)
  std::vector<Count> omegas;  ///< Ω^a_b per overload chain (Lemma 4)
  std::size_t combination_count = 0;     ///< combinations enumerated
  std::size_t unschedulable_count = 0;   ///< |U| handed to the ILP
  Count packing_optimum = 0;             ///< ILP optimum (Σ x_c̄)
  long long solver_nodes = 0;            ///< B&B / DFS nodes
};

// ---------------------------------------------------------------------
// Stage boundaries (artifact pipeline)
// ---------------------------------------------------------------------
//
// The DMM computation is staged: interference context -> busy windows
// (LatencyResult) -> k-independent overload artifacts (TargetArtifacts)
// -> dmm(k) with a combination-packing solve.  The free functions below
// expose each boundary so callers that cache artifacts at a finer grain
// than "one analyzer per system" (wharf::Engine's ArtifactStore) can
// inject upstream results and intercept the packing solve.  TwcaAnalyzer
// remains the convenient per-system façade over the same functions.

/// Injectable solver for the Theorem-3 packing step.  The default (an
/// empty function) is ilp::solve_packing_ilp; the Engine injects a
/// solver that caches solutions by problem content and splits
/// independent subproblems across its worker pool, and the test oracles
/// inject an exhaustive DFS cross-check.
using PackingSolver = std::function<ilp::PackingSolution(const ilp::PackingProblem&)>;

/// The k-independent artifacts of Theorem 3 for one target chain: the
/// overload structure (Def. 8), the slack threshold (Eq. 5 or the exact
/// Eq. 3 variant), the unschedulable combinations (Def. 9), and the
/// short-circuit classification (always-meets / no-guarantee).
struct TargetArtifacts {
  Time slack = 0;  ///< theta_b; valid when no short-circuit applies
  OverloadStructure structure;
  std::vector<Combination> unschedulable;
  /// When set, every dmm query returns kNoGuarantee with this reason.
  std::optional<std::string> no_guarantee_reason;
  /// When true, the chain never misses (WCL <= D): dmm == 0.
  bool always_meets = false;
};

/// Builds the k-independent overload artifacts of `target` from its
/// interference context and full latency result.  The target must have a
/// deadline.
[[nodiscard]] TargetArtifacts build_target_artifacts(const System& system, int target,
                                                     const InterferenceContext& context,
                                                     const LatencyResult& latency,
                                                     const TwcaOptions& options);

/// The k-dependent step of Theorem 3: Lemma-4 capacities, the packing
/// problem over `artifacts.unschedulable`, and the final dmm(k) bound.
/// `latency` and `artifacts` must describe `target` (the outputs of the
/// upstream stages); `solver` intercepts the packing solve (empty =
/// built-in exact solvers).
[[nodiscard]] DmmResult dmm_from_artifacts(const System& system, int target,
                                           const LatencyResult& latency,
                                           const TargetArtifacts& artifacts, Count k,
                                           const TwcaOptions& options,
                                           const PackingSolver& solver = {});

/// Façade bundling latency analysis and DMM computation with caching of
/// the per-chain artefacts that do not depend on k (interference context,
/// K/WCL/N_b, slack, active segments, unschedulable combinations).
class TwcaAnalyzer {
 public:
  /// Analyzes `system` (owned) under `options`; nothing is computed
  /// until the first query.
  explicit TwcaAnalyzer(System system, TwcaOptions options = {});
  ~TwcaAnalyzer();

  TwcaAnalyzer(TwcaAnalyzer&&) noexcept;
  TwcaAnalyzer& operator=(TwcaAnalyzer&&) noexcept;

  /// The analyzed system.
  [[nodiscard]] const System& system() const;
  /// The options every query runs under.
  [[nodiscard]] const TwcaOptions& options() const;

  /// Full latency analysis (Theorem 2), cached per chain.
  [[nodiscard]] const LatencyResult& latency(int chain) const;

  /// Latency analysis with all overload chains abstracted away (the
  /// paper's "second analysis" in Experiment 1), cached per chain.
  [[nodiscard]] const LatencyResult& latency_without_overload(int chain) const;

  /// dmm_chain(k) per Theorem 3.  The chain must have a deadline and must
  /// not itself be an overload chain.
  [[nodiscard]] DmmResult dmm(int chain, Count k) const;

  /// Batch helper: dmm for several k values (shares all per-chain work).
  [[nodiscard]] std::vector<DmmResult> dmm_curve(int chain, const std::vector<Count>& ks) const;

  /// Weakly-hard (m,k) verification: true iff dmm(k) <= m.
  [[nodiscard]] bool satisfies_weakly_hard(int chain, Count m, Count k) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wharf

#endif  // WHARF_CORE_TWCA_HPP
