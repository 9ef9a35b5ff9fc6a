/// \file busy_window_reference.cpp
/// The pre-flattening busy-window implementation, preserved verbatim
/// from before the data-oriented rewrite of busy_window.cpp: virtual
/// eta/delta dispatch per call, cold-started Kleene iteration per q.
/// Serves as the bit-identity oracle — bench/core_solver.cpp and
/// tests/arrival_table_test.cpp compare the flat kernel against these
/// functions field by field, and CI gates on the comparison.

#include <algorithm>

#include "oracles/busy_window_reference.hpp"
#include "util/expect.hpp"
#include "util/strings.hpp"

namespace wharf::reference {

namespace {

/// Interference contributed by one other chain σ_a over a window of
/// length `window`, per Eq. (1)/(3)/(4):
///  * arbitrarily interfering (or `naive`):  η⁺_a(window) · C_a;
///  * deferred, asynchronous:  η⁺_a(window) · C_header_{a,b} + Σ_s C_s;
///  * deferred, synchronous:   C_{s_crit_{a,b}}.
Time chain_interference(const System& system, const ChainInterference& info, Time window,
                        bool naive) {
  const Chain& a = system.chain(info.chain);
  if (naive || !info.deferred) {
    const Count eta = a.arrival().eta_plus(window);
    if (eta == kCountInfinity) return kTimeInfinity;
    return sat_mul(eta, a.total_wcet());
  }
  if (a.is_asynchronous()) {
    const Count eta = a.arrival().eta_plus(window);
    if (eta == kCountInfinity) return kTimeInfinity;
    return sat_add(sat_mul(eta, info.header_segment_cost), info.segments_total_cost);
  }
  return info.critical ? info.critical->cost : 0;
}

/// Self-interference of an asynchronous analyzed chain (2nd line of
/// Eq. 1): activations beyond the q under analysis may run up to the
/// chain's own header subchain before stalling at its lowest-priority
/// task.
Time self_interference(const Chain& b, const InterferenceContext& ctx, Time window, Count q) {
  if (!b.is_asynchronous() || ctx.self_header_cost == 0) return 0;
  const Count eta = b.arrival().eta_plus(window);
  if (eta == kCountInfinity) return kTimeInfinity;
  const Count extra = std::max<Count>(0, eta - q);
  return sat_mul(extra, ctx.self_header_cost);
}

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// Full right-hand side of Eq. (1) evaluated at busy-time guess `window`.
Time busy_rhs(const System& system, const InterferenceContext& ctx, Count q, Time window,
              const AnalysisOptions& options, const std::vector<int>& exclude) {
  const Chain& b = system.chain(ctx.target);
  Time total = sat_mul(q, b.total_wcet());
  total = sat_add(total, self_interference(b, ctx, window, q));
  for (const ChainInterference& info : ctx.others) {
    if (contains(exclude, info.chain)) continue;
    total = sat_add(total, chain_interference(system, info, window, options.naive_arbitrary));
  }
  return total;
}

}  // namespace

std::optional<Time> busy_time(const System& system, const InterferenceContext& ctx, Count q,
                              const AnalysisOptions& options, const std::vector<int>& exclude) {
  WHARF_EXPECT(q >= 1, "busy_time requires q >= 1, got " << q);
  // Kleene iteration from the constant part: Eq. (1) is monotone in B, so
  // this converges to the least fixed point whenever one exists.
  Time current = sat_mul(q, system.chain(ctx.target).total_wcet());
  for (int iter = 0; iter < options.max_fixed_point_iterations; ++iter) {
    const Time next = busy_rhs(system, ctx, q, current, options, exclude);
    if (next >= options.divergence_guard || is_infinite(next)) return std::nullopt;
    if (next == current) return current;
    WHARF_ASSERT(next > current);  // monotone iteration
    current = next;
  }
  return std::nullopt;  // iteration cap: treat as divergent
}

LatencyResult latency_analysis(const System& system, int target, const AnalysisOptions& options,
                               const std::vector<int>& exclude) {
  const InterferenceContext ctx = make_interference_context(system, target);
  const Chain& b = system.chain(target);

  LatencyResult result;
  result.wcl = 0;
  result.worst_q = 0;

  Count misses = 0;
  for (Count q = 1; q <= options.max_busy_windows; ++q) {
    const std::optional<Time> bq = reference::busy_time(system, ctx, q, options, exclude);
    if (!bq.has_value()) {
      result.bounded = false;
      result.reason = util::cat("busy-time fixed point diverged at q=", q,
                                " (processor overloaded or guard exceeded)");
      return result;
    }
    result.busy_times.push_back(*bq);

    const Time latency = *bq - b.arrival().delta_minus(q);
    if (latency > result.wcl || result.worst_q == 0) {
      result.wcl = latency;
      result.worst_q = q;
    }
    if (b.deadline().has_value() && latency > *b.deadline()) ++misses;

    if (*bq <= b.arrival().delta_minus(q + 1)) {
      result.K = q;
      result.bounded = true;
      if (b.deadline().has_value()) {
        result.misses_per_window = misses;
        result.schedulable = result.wcl <= *b.deadline();
      }
      return result;
    }
  }
  result.bounded = false;
  result.reason = util::cat("no maximal busy window within ", options.max_busy_windows,
                            " activations (K_b search cap)");
  return result;
}

}  // namespace wharf::reference
