/// \file busy_window_reference.hpp
/// Declarations of the bit-identity oracle in busy_window_reference.cpp.
/// It lives outside libwharf in the `wharf_oracles` target, which only
/// the tests and benches link.

#ifndef WHARF_ORACLES_BUSY_WINDOW_REFERENCE_HPP
#define WHARF_ORACLES_BUSY_WINDOW_REFERENCE_HPP

#include <optional>
#include <vector>

#include "core/busy_window.hpp"

namespace wharf {

/// The pre-flattening busy-window implementation, preserved
/// verbatim as the bit-identity oracle for the data-oriented kernel:
/// bench/core_solver.cpp and the property tests gate the flat path
/// against these on every run.  Virtual-dispatch per eta/delta call —
/// correct but slow; not for production use.  It always searches to the
/// K_b cap (no divergence certificate), and its unbounded results keep
/// the busy times computed on the way, so only their classification is
/// comparable with the kernel's.
namespace reference {

/// Pre-flattening Theorem 1 fixed point (see the namespace comment).
[[nodiscard]] std::optional<Time> busy_time(const System& system, const InterferenceContext& ctx,
                                            Count q, const AnalysisOptions& options,
                                            const std::vector<int>& exclude = {});

/// Pre-flattening Theorem 2 + Lemma 3 analysis (see the namespace comment).
[[nodiscard]] LatencyResult latency_analysis(const System& system, int target,
                                             const AnalysisOptions& options = {},
                                             const std::vector<int>& exclude = {});

}  // namespace reference

}  // namespace wharf

#endif  // WHARF_ORACLES_BUSY_WINDOW_REFERENCE_HPP
