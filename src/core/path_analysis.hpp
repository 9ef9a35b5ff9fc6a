/// \file path_analysis.hpp
/// Paths: sequences of distinct task chains activating each other
/// (paper footnote 1: fork/join systems without cycles decompose into
/// chains plus paths over them).
///
/// Composition model (v1, documented soundness argument):
///  * Chain instances correspond 1:1 along the path (chain i's n-th
///    completion activates chain i+1's n-th instance; completions stay
///    in activation order because equal-priority jobs run FIFO).
///  * End-to-end latency of a path instance is the sum of the per-chain
///    latencies, so  WCL_path <= Σ_i WCL_i.
///  * For deadline miss models, an end-to-end deadline D is split into
///    per-chain budgets D_i with Σ D_i = D; a path instance can only
///    miss D if some chain instance misses its budget, hence
///    dmm_path(k) <= Σ_i dmm_i^{D_i}(k)  (each chain sees exactly k
///    instances in k consecutive path instances).
///
/// Precondition: each chain's *declared* activation model must bound the
/// activations it receives through the link (the usual CPA contract).
/// For a periodic or periodic-with-jitter upstream chain,
/// derived_output_model() constructs a sound such model for the
/// downstream chain.

#ifndef WHARF_CORE_PATH_ANALYSIS_HPP
#define WHARF_CORE_PATH_ANALYSIS_HPP

#include <optional>
#include <string>
#include <vector>

#include "core/twca.hpp"

namespace wharf {

/// A path: an ordered sequence of distinct chains of one system.
struct PathSpec {
  std::vector<int> chains;        ///< chain indices, in path order
  std::optional<Time> deadline;   ///< end-to-end deadline (needed for DMM)
  /// Optional per-chain deadline budgets (same length as `chains`,
  /// summing to `deadline`).  Empty: split proportionally to the
  /// standalone WCLs.
  std::vector<Time> budgets;
};

/// End-to-end latency bound of a path.
struct PathLatencyResult {
  bool bounded = false;
  std::string reason;             ///< set when !bounded
  Time wcl = 0;                   ///< Σ per-chain WCL
  std::vector<Time> per_chain_wcl;
};

/// End-to-end deadline miss model of a path.
struct PathDmmResult {
  Count k = 0;
  Count dmm = 0;
  DmmStatus status = DmmStatus::kNoGuarantee;
  std::string reason;
  std::vector<Time> budgets;      ///< the per-chain budgets used
  std::vector<Count> per_chain;   ///< dmm_i^{D_i}(k)
};

/// Artifact-boundary interface of path analysis: where the per-chain
/// stage results come from.  path_latency()/path_dmm() compose purely
/// over this oracle, so callers that cache per-chain artifacts (the
/// Engine's ArtifactStore pipeline) plug in directly.
class PathChainOracle {
 public:
  virtual ~PathChainOracle() = default;

  /// Full latency result of `chain` (Theorem 2).
  [[nodiscard]] virtual LatencyResult latency(int chain) = 0;

  /// dmm(k) of `chain` with its deadline replaced by `budget` (the
  /// per-chain share of the end-to-end deadline).
  [[nodiscard]] virtual DmmResult dmm_with_budget(int chain, Time budget, Count k) = 0;
};

/// Validates a path against a system (>= 1 chain, indices in range and
/// distinct, no overload chains); throws wharf::InvalidArgument.
void validate_path(const System& system, const PathSpec& path);

/// WCL_path <= Σ WCL_i (unbounded when any chain is).
[[nodiscard]] PathLatencyResult path_latency(const System& system, const PathSpec& path,
                                             PathChainOracle& oracle);

/// dmm_path(k) <= min(Σ dmm_i^{D_i}(k), k); requires path.deadline.
[[nodiscard]] PathDmmResult path_dmm(const System& system, const PathSpec& path, Count k,
                                     PathChainOracle& oracle);

/// A sound activation model for the *outputs* (completions) of a chain
/// whose input is periodic or periodic-with-jitter: same period, jitter
/// increased by (WCL - C) — a chain's latency varies between its own
/// total WCET (lower bound on any uniprocessor) and its WCL — and
/// minimum output distance 1.  Throws for other input model shapes.
[[nodiscard]] ArrivalModelPtr derived_output_model(const Chain& chain,
                                                   const LatencyResult& latency);

}  // namespace wharf

#endif  // WHARF_CORE_PATH_ANALYSIS_HPP
