/// \file dmm_curve.hpp
/// The breakpoints of the deadline-miss-model curve k -> dmm(k).
///
/// dmm(k) is a monotone non-decreasing step function of k (Omega of
/// Lemma 4 grows with the window delta_plus(k), and the cap at k grows
/// too), which makes its breakpoints well-defined and binary-searchable.
/// They answer the question weakly-hard designers actually ask: "where
/// does my guarantee degrade?".  The search only sees the curve as a
/// callable, so any dmm source drives it (`wharf dmm --breakpoints`
/// probes Session::dmm, sharing the engine's artifact store).

#ifndef WHARF_CORE_DMM_CURVE_HPP
#define WHARF_CORE_DMM_CURVE_HPP

#include <functional>
#include <vector>

#include "util/types.hpp"

namespace wharf {

/// One step of the dmm curve: dmm(k) == dmm for all k in [k, next break).
struct DmmBreakpoint {
  Count k = 0;    ///< smallest k attaining this dmm value
  Count dmm = 0;  ///< dmm(k)
};

/// All breakpoints of the monotone curve `dmm_at` for k in [1, k_max]:
/// the first entry is k=1; every further entry is the smallest k where
/// the value increases.  Binary search between steps
/// (O(steps * log k_max) probes of `dmm_at`).
[[nodiscard]] std::vector<DmmBreakpoint> dmm_breakpoints(
    const std::function<Count(Count)>& dmm_at, Count k_max);

}  // namespace wharf

#endif  // WHARF_CORE_DMM_CURVE_HPP
