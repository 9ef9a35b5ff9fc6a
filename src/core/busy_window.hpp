/// \file busy_window.hpp
/// Worst-case latency analysis of task chains (paper Section IV).
///
/// Implements the q-event busy time B_b(q) of Theorem 1 (Eq. 1) as a
/// least fixed point, the busy-window bound K_b and worst-case latency
/// WCL_b of Theorem 2, the per-window deadline-miss count N_b of
/// Lemma 3, and the overload-free "typical" bound L_b(q) of Eq. (4)
/// together with the slack threshold that powers the schedulability
/// criterion of Eq. (5).

#ifndef WHARF_CORE_BUSY_WINDOW_HPP
#define WHARF_CORE_BUSY_WINDOW_HPP

#include <optional>
#include <string>
#include <vector>

#include "core/interference.hpp"
#include "core/system.hpp"

namespace wharf {

/// Knobs shared by latency and TWCA analyses.
struct AnalysisOptions {
  /// Cap on the K_b search (number of busy-window positions explored).
  /// A search whose charged long-run load provably exceeds 1 stops
  /// earlier (see LatencyResult::reason).
  Count max_busy_windows = 1'000'000;
  /// Cap on Kleene iterations per fixed point.
  int max_fixed_point_iterations = 1'000'000;
  /// Busy times above this guard are treated as divergent (unbounded).
  Time divergence_guard = Time{1} << 60;
  /// Ablation switch: ignore Definitions 2–5 and treat every interfering
  /// chain as arbitrarily interfering (the coarse baseline the paper
  /// improves upon).  Used by bench_ablation_latency.
  bool naive_arbitrary = false;
};

/// Result of the latency analysis of one chain.
struct LatencyResult {
  /// False when the busy window diverges (e.g. utilization >= 1) or a cap
  /// was hit; every other field then keeps its default (K and wcl 0,
  /// busy_times empty) except `reason`.
  bool bounded = false;
  /// Human-readable cause when !bounded, one of:
  ///  * "busy-time fixed point diverged at q=<q> (...)" — B_b(q) itself
  ///    is unbounded or past the divergence guard;
  ///  * "busy window never closes: charged long-run load <N>/<P> > 1" —
  ///    the load Eq. (1) charges in the long run (a reduced fraction)
  ///    proves that no q closes the window;
  ///  * "no maximal busy window within <cap> activations (K_b search
  ///    cap)" — no proof either way within max_busy_windows.
  std::string reason;
  /// K_b: number of activations fitting one maximal busy window (Thm 2).
  Count K = 0;
  /// B_b(1..K); busy_times[q-1] is B_b(q).  Empty when !bounded.
  std::vector<Time> busy_times;
  /// Worst-case latency WCL_b = max_q B_b(q) - delta_minus(q).
  Time wcl = 0;
  /// The q attaining the WCL.
  Count worst_q = 0;
  /// N_b (Lemma 3): #{q | B_b(q) - delta_minus(q) > D_b}.  Present only
  /// when the chain has a deadline.
  std::optional<Count> misses_per_window;
  /// True iff bounded and the chain has a deadline and wcl <= deadline.
  bool schedulable = false;
};

/// Theorem 1 / Eq. (1): least fixed point bounding the q-event busy time
/// of chain `ctx.target`.  Chains whose index appears in `exclude` are
/// ignored entirely (used to abstract overload chains away, as in the
/// paper's "second analysis").  Returns std::nullopt on divergence.
[[nodiscard]] std::optional<Time> busy_time(const System& system, const InterferenceContext& ctx,
                                            Count q, const AnalysisOptions& options,
                                            const std::vector<int>& exclude = {});

/// One contribution to a busy time (for reports/debugging).  Stores the
/// structured facts; the human-readable label is rendered on demand via
/// label(), so the analysis never builds diagnostic strings it may not
/// need (the old eager util::cat labels allocated per term).
struct BusyTimeTerm {
  /// Which Eq. (1) term this is (selects the label wording).
  enum class Kind {
    kDemand,         ///< q x C_b: the analyzed chain's own demand
    kSelfHeader,     ///< async self header pile-up (2nd line of Eq. 1)
    kArbitrary,      ///< arbitrarily interfering chain: eta x C_a
    kDeferredAsync,  ///< deferred async: eta x C_header + one per segment
    kDeferredSync,   ///< deferred sync: critical segment only
  };
  Kind kind = Kind::kDemand;  ///< term kind
  int chain = -1;             ///< contributing chain (the target for kDemand/kSelfHeader)
  Count q = 0;                ///< activation count under analysis (kDemand label)
  Time amount = 0;            ///< the term's value at the evaluated window
  /// Renders the label, e.g. "2 x C_gamma (demand)" or
  /// "alpha — deferred sync (critical segment)".
  [[nodiscard]] std::string label(const System& system) const;
};

/// Term-by-term itemization of Eq. (1) evaluated at the busy time `B`
/// (typically the fixed point returned by busy_time()); the amounts sum
/// to the right-hand side at `B` — i.e. exactly `B` when `B` is the
/// fixed point.
[[nodiscard]] std::vector<BusyTimeTerm> busy_time_breakdown(const System& system,
                                                            const InterferenceContext& ctx,
                                                            Count q, Time busy,
                                                            const AnalysisOptions& options = {},
                                                            const std::vector<int>& exclude = {});

/// Theorem 2 + Lemma 3: full latency analysis of chain `target`.
[[nodiscard]] LatencyResult latency_analysis(const System& system, int target,
                                             const AnalysisOptions& options = {},
                                             const std::vector<int>& exclude = {});

/// As above, but reusing a prebuilt interference context of the target
/// (e.g. the engine's cached stage-1 artifact) instead of rebuilding it.
[[nodiscard]] LatencyResult latency_analysis(const System& system,
                                             const InterferenceContext& ctx,
                                             const AnalysisOptions& options = {},
                                             const std::vector<int>& exclude = {});

/// Eq. (4): the typical (overload-free) load bound L_b(q), evaluated over
/// the window delta_minus_b(q) + D_b — no fixed point required.  Overload
/// chains are excluded per the paper; requires the chain to have a
/// deadline.
[[nodiscard]] Time typical_bound(const System& system, const InterferenceContext& ctx, Count q,
                                 const AnalysisOptions& options);

/// Slack threshold of the schedulability criterion (Eq. 5):
///   theta_b = min_{q in [1,K]} (delta_minus_b(q) + D_b - L_b(q)).
/// A combination c is unschedulable iff cost(c) > theta_b.  Negative
/// slack means the chain can miss deadlines even without any overload.
[[nodiscard]] Time typical_slack(const System& system, const InterferenceContext& ctx, Count K,
                                 const AnalysisOptions& options);

/// Eq. (3): busy time of the target chain where every overload chain's
/// contribution is replaced by the fixed total cost of a combination
/// (the Boolean-selected Σ_s C_s r_s term).  All overload chains are
/// excluded from the interference walk; `combination_cost` is added as a
/// constant.  Returns std::nullopt on divergence.
[[nodiscard]] std::optional<Time> busy_time_with_combination(const System& system,
                                                             const InterferenceContext& ctx,
                                                             Count q, Time combination_cost,
                                                             const AnalysisOptions& options);

/// Exact slack under Eq. (3): the largest combination cost theta such
/// that for all q in [1, K], B^c(q) - delta_minus(q) <= D — found by
/// binary search (Eq. (3) is monotone in the cost).  Always >= the Eq. 5
/// slack; combinations with cost <= theta are schedulable under the
/// exact per-q fixed-point test.  Returns -1 when even cost 0 misses.
[[nodiscard]] Time exact_combination_slack(const System& system, const InterferenceContext& ctx,
                                           Count K, Time max_cost,
                                           const AnalysisOptions& options);

}  // namespace wharf

#endif  // WHARF_CORE_BUSY_WINDOW_HPP
