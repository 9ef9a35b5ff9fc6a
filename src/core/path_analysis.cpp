#include "core/path_analysis.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "util/expect.hpp"
#include "util/strings.hpp"

namespace wharf {

namespace {

/// Splits an end-to-end deadline into per-chain budgets: explicit
/// budgets when given (validated), else proportional to the standalone
/// WCLs.
std::vector<Time> resolve_budgets(const PathSpec& path, const std::vector<Time>& wcls) {
  const Time deadline = *path.deadline;
  const auto n = static_cast<Time>(path.chains.size());
  if (!path.budgets.empty()) {
    WHARF_EXPECT(path.budgets.size() == path.chains.size(),
                 "expected " << path.chains.size() << " budgets, got " << path.budgets.size());
    Time sum = 0;
    for (Time b : path.budgets) {
      WHARF_EXPECT(b >= 1, "per-chain budget must be >= 1, got " << b);
      sum = sat_add(sum, b);
    }
    WHARF_EXPECT(sum == deadline, "budgets sum to " << sum << ", path deadline is " << deadline);
    return path.budgets;
  }

  WHARF_EXPECT(deadline >= n,
               "path deadline " << deadline << " cannot be split over " << n << " chains");
  // Proportional to standalone WCLs (weight >= 1 so that zero-cost chains
  // still receive a budget).  The products run in 128-bit arithmetic:
  // deadline * weight overflows Time for large-but-bounded WCLs, and the
  // quotient is always <= deadline.
  Time total_weight = 0;
  std::vector<Time> weights;
  for (Time w : wcls) {
    weights.push_back(std::max<Time>(w, 1));
    total_weight = sat_add(total_weight, weights.back());
  }
  std::vector<Time> budgets(path.chains.size(), 1);
  Time assigned = 0;
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const auto share = static_cast<Time>(static_cast<__int128>(deadline) * weights[i] /
                                         total_weight);
    budgets[i] = std::max<Time>(1, share);
    assigned = sat_add(assigned, budgets[i]);
  }
  // Fix the rounding drift on the last chain (keeping every budget >= 1).
  Time drift = deadline - assigned;
  for (std::size_t i = budgets.size(); i-- > 0 && drift != 0;) {
    const Time adjusted = std::max<Time>(1, budgets[i] + drift);
    drift -= adjusted - budgets[i];
    budgets[i] = adjusted;
  }
  WHARF_ASSERT(std::accumulate(budgets.begin(), budgets.end(), Time{0}) == deadline);
  return budgets;
}

}  // namespace

void validate_path(const System& system, const PathSpec& path) {
  WHARF_EXPECT(!path.chains.empty(), "a path needs at least one chain");
  std::unordered_set<int> seen;
  for (int c : path.chains) {
    WHARF_EXPECT(c >= 0 && c < system.size(),
                 "path chain index " << c << " out of range [0, " << system.size() << ")");
    WHARF_EXPECT(seen.insert(c).second, "path lists chain '" << system.chain(c).name()
                                                             << "' twice (chains in a path "
                                                                "must be distinct)");
    WHARF_EXPECT(!system.chain(c).is_overload(),
                 "overload chain '" << system.chain(c).name() << "' cannot be on a path");
  }
}

PathLatencyResult path_latency(const System& system, const PathSpec& path,
                               PathChainOracle& oracle) {
  validate_path(system, path);
  PathLatencyResult result;
  for (int c : path.chains) {
    const LatencyResult chain_result = oracle.latency(c);
    if (!chain_result.bounded) {
      result.bounded = false;
      result.reason = util::cat("chain '", system.chain(c).name(),
                                "' has no latency bound: ", chain_result.reason);
      return result;
    }
    result.per_chain_wcl.push_back(chain_result.wcl);
    result.wcl = sat_add(result.wcl, chain_result.wcl);
  }
  result.bounded = true;
  return result;
}

PathDmmResult path_dmm(const System& system, const PathSpec& path, Count k,
                       PathChainOracle& oracle) {
  validate_path(system, path);
  WHARF_EXPECT(k >= 1, "dmm requires k >= 1, got " << k);
  WHARF_EXPECT(path.deadline.has_value(), "path DMM requires an end-to-end deadline");

  PathDmmResult result;
  result.k = k;

  const PathLatencyResult lat = path_latency(system, path, oracle);
  if (!lat.bounded) {
    result.status = DmmStatus::kNoGuarantee;
    result.reason = lat.reason;
    result.dmm = k;
    return result;
  }
  if (lat.wcl <= *path.deadline) {
    result.status = DmmStatus::kAlwaysMeets;
    result.dmm = 0;
    return result;
  }

  result.budgets = resolve_budgets(path, lat.per_chain_wcl);

  Count total = 0;
  for (std::size_t i = 0; i < path.chains.size(); ++i) {
    const int c = path.chains[i];
    const DmmResult chain_dmm = oracle.dmm_with_budget(c, result.budgets[i], k);
    if (chain_dmm.status == DmmStatus::kNoGuarantee) {
      result.status = DmmStatus::kNoGuarantee;
      result.reason = util::cat("chain '", system.chain(c).name(), "' with budget ",
                                result.budgets[i], ": ", chain_dmm.reason);
      result.dmm = k;
      return result;
    }
    result.per_chain.push_back(chain_dmm.dmm);
    total += chain_dmm.dmm;
  }
  result.status = DmmStatus::kBounded;
  result.dmm = std::min<Count>(total, k);
  return result;
}

ArrivalModelPtr derived_output_model(const Chain& chain, const LatencyResult& latency) {
  WHARF_EXPECT(latency.bounded, "derived_output_model requires a bounded latency for chain '"
                                    << chain.name() << "'");
  const Time shift = latency.wcl - chain.total_wcet();
  WHARF_ASSERT(shift >= 0);

  const ArrivalModel& in = chain.arrival();
  // Lower curve: completions c_n = a_n + L_n with L_n in [C, WCL], so
  // any q consecutive outputs span at least delta_in(q) - (WCL - C).
  // Beyond a fixed prefix every library model grows linearly, so the
  // tail slope is exact.
  constexpr Count kPrefix = 64;
  std::vector<Time> prefix;
  for (Count q = 2; q <= kPrefix + 1; ++q) {
    const Time d = in.delta_minus(q);
    prefix.push_back(d > shift ? d - shift : 0);
  }
  const Time slope = in.delta_minus(kPrefix + 2) - in.delta_minus(kPrefix + 1);
  WHARF_EXPECT(slope >= 1, "input arrival model of chain '"
                               << chain.name()
                               << "' has a non-increasing long-run delta curve");

  // Upper curve: outputs span at most delta_plus_in(q) + (WCL - C).
  // Preserved only when the input bounds it (finite delta_plus), which
  // is what keeps Lemma 4 applicable downstream on a path.
  if (is_infinite(in.delta_plus(2))) {
    return delta_curve(std::move(prefix), slope);
  }
  std::vector<Time> plus_prefix;
  for (Count q = 2; q <= kPrefix + 1; ++q) {
    plus_prefix.push_back(sat_add(in.delta_plus(q), shift));
  }
  const Time plus_slope = in.delta_plus(kPrefix + 2) - in.delta_plus(kPrefix + 1);
  return delta_curve_with_plus(std::move(prefix), slope, std::move(plus_prefix),
                               std::max(plus_slope, slope));
}

}  // namespace wharf
