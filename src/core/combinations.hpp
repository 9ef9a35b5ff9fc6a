/// \file combinations.hpp
/// Overload combinations (paper Definition 9) and their enumeration.
///
/// A combination is a set of active segments of overload chains w.r.t.
/// the analyzed chain σ_b, restricted so that two active segments of the
/// same chain must belong to the same segment (otherwise they provably
/// cannot execute within one σ_b-busy-window, Lemma 1).  Unschedulable
/// combinations are those whose total cost exceeds the slack threshold of
/// Eq. (5); only *minimal* unschedulable combinations matter for the
/// packing optimum of Theorem 3 (any optimal packing can swap a
/// non-minimal combination for a minimal subset without losing value),
/// which keeps the ILP small.

#ifndef WHARF_CORE_COMBINATIONS_HPP
#define WHARF_CORE_COMBINATIONS_HPP

#include <string>
#include <vector>

#include "core/segments.hpp"
#include "core/system.hpp"

namespace wharf {

/// Active segments of one overload chain w.r.t. the analyzed chain.
struct OverloadActiveSegments {
  int chain = -1;                      ///< overload chain index in the system
  std::vector<ActiveSegment> active;   ///< w.r.t. the analyzed chain, in order
};

/// Active-segment structure of all overload chains w.r.t. one target.
struct OverloadStructure {
  int target = -1;
  /// One entry per overload chain, in System::overload_indices() order.
  std::vector<OverloadActiveSegments> per_chain;

  /// Total number of active segments across all overload chains.
  [[nodiscard]] int total_active() const;
};

/// Identifies one active segment inside an OverloadStructure.
struct ActiveSegmentId {
  int chain_pos = -1;     ///< index into OverloadStructure::per_chain
  int active_index = -1;  ///< index into per_chain[chain_pos].active

  friend bool operator==(const ActiveSegmentId&, const ActiveSegmentId&) = default;
};

/// A combination c̄ (Def. 9): a set of active segments, valid w.r.t. the
/// same-segment rule.
struct Combination {
  std::vector<ActiveSegmentId> segments;
  /// Σ_{s ∈ c̄} C_s — the only quantity the criterion of Eq. (5) needs.
  Time cost = 0;
};

/// Computes the active segments of every overload chain w.r.t. `target`.
[[nodiscard]] OverloadStructure overload_structure(const System& system, int target);

/// Enumerates every valid non-empty combination (Def. 9).  Throws
/// wharf::AnalysisError when more than `max_count` combinations exist or
/// a single segment carries more than 20 active segments (2^20 subsets).
[[nodiscard]] std::vector<Combination> enumerate_combinations(const System& system,
                                                              const OverloadStructure& structure,
                                                              std::size_t max_count);

/// Minimal unschedulable combinations w.r.t. a non-negative slack
/// threshold (Eq. 5: unschedulable iff cost > slack; minimal iff also
/// cost - min_member_cost <= slack).  Packing only the minimal ones
/// preserves the optimum of Theorem 3 (see the file comment).
[[nodiscard]] std::vector<Combination> unschedulable_combinations(
    const System& system, const OverloadStructure& structure, Time slack,
    std::size_t max_count);

/// Pretty "{(tau1,tau2),(tau5)}" rendering of a combination.
[[nodiscard]] std::string format_combination(const System& system,
                                             const OverloadStructure& structure,
                                             const Combination& combination);

}  // namespace wharf

#endif  // WHARF_CORE_COMBINATIONS_HPP
