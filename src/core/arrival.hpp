/// \file arrival.hpp
/// Activation models of task chains, expressed as arrival curves.
///
/// Following the paper (Section II, citing real-time calculus [7]):
///  * `eta_plus(dt)`  — maximum number of activations in any half-open
///    time window of length `dt` (the paper's η⁺; the only η the analysis
///    needs, but η⁻ is provided for completeness and the simulator).
///  * `delta_minus(q)` — minimum distance between the first and the last
///    of any `q` consecutive activations (pseudo-inverse δ⁻).
///  * `delta_plus(q)`  — maximum such distance (δ⁺); `kTimeInfinity` for
///    sporadic models.
///
/// Convention (calibrated against the paper's own case-study numbers):
///   eta_plus(dt) = max{ q >= 0 | delta_minus(q) < dt },
/// with delta_minus(1) = 0.  For a periodic model with period P this gives
/// eta_plus(dt) = ceil(dt / P).

#ifndef WHARF_CORE_ARRIVAL_HPP
#define WHARF_CORE_ARRIVAL_HPP

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace wharf {

/// Arithmetic tail of a delta_minus curve: for every q >= `valid_from`,
///   delta_minus(q + block) == delta_minus(q) + span   (saturating).
/// Every library model is eventually arithmetic — periodic/sporadic
/// curves from q = 1, jitter curves once the period term dominates the
/// min-distance term, explicit curves beyond their prefix, bursts with
/// block = burst size — which is what lets ArrivalTable (arrival_table.hpp)
/// evaluate them via a dense prefix plus O(block) tail arithmetic.
struct ArrivalTailSpec {
  Count valid_from = 1;  ///< first q the recurrence holds from (>= 1)
  Count block = 1;       ///< recurrence stride in activations (>= 1)
  Time span = 1;         ///< distance gained per block (>= 1)
};

/// Abstract activation model (immutable; shared between chains).
class ArrivalModel {
 public:
  virtual ~ArrivalModel() = default;

  ArrivalModel(const ArrivalModel&) = delete;
  ArrivalModel& operator=(const ArrivalModel&) = delete;

  /// Maximum activations in any window of length `window`
  /// (0 for `window <= 0`; `kCountInfinity` for an infinite window).
  [[nodiscard]] virtual Count eta_plus(Time window) const = 0;

  /// Minimum activations in any window of length `window`.
  [[nodiscard]] virtual Count eta_minus(Time window) const = 0;

  /// Minimum distance spanned by `q` consecutive activations (0 for q <= 1).
  [[nodiscard]] virtual Time delta_minus(Count q) const = 0;

  /// Maximum distance spanned by `q` consecutive activations
  /// (0 for q <= 1; `kTimeInfinity` when unbounded, e.g. sporadic).
  [[nodiscard]] virtual Time delta_plus(Count q) const = 0;

  /// Long-run upper bound on the activation rate (events per tick), i.e.
  /// lim sup eta_plus(dt)/dt.  Used for utilization tests.
  [[nodiscard]] virtual double rate_upper() const = 0;

  /// The eventually-arithmetic structure of this model's delta_minus
  /// curve, if it has one (see ArrivalTailSpec).  Models returning
  /// nullopt are still analyzed correctly — ArrivalTable just falls back
  /// to virtual evaluation for them.  Every library model overrides this.
  [[nodiscard]] virtual std::optional<ArrivalTailSpec> tail_spec() const { return std::nullopt; }

  /// Canonical, parseable textual form (e.g. "periodic(200)"); `io::`
  /// serialization reuses this exact syntax.
  [[nodiscard]] virtual std::string describe() const = 0;

 protected:
  ArrivalModel() = default;
};

/// Shared immutable handle used throughout the model layer.
using ArrivalModelPtr = std::shared_ptr<const ArrivalModel>;

/// Strictly periodic activation with period `period >= 1`.
[[nodiscard]] ArrivalModelPtr periodic(Time period);

/// Periodic activation with release jitter: events nominally `period`
/// apart may be displaced by up to `jitter`, never closer than
/// `min_distance >= 1` ticks.  delta_plus is finite:
/// (q-1)*period + jitter.
[[nodiscard]] ArrivalModelPtr periodic_jitter(Time period, Time jitter, Time min_distance = 1);

/// Sporadic activation with minimum inter-arrival `min_distance >= 1`;
/// delta_plus is unbounded.
[[nodiscard]] ArrivalModelPtr sporadic(Time min_distance);

/// Sporadic activation defined by an explicit prefix of its
/// delta_minus curve: `prefix[i]` is delta_minus(i + 2), extended beyond
/// the prefix with slope `tail_period >= 1`:
///   delta_minus(q) = prefix.back() + (q - prefix.size() - 1) * tail_period.
/// `prefix` must be non-decreasing and non-negative.  This models the
/// paper's "rarely activated sporadic chains", whose short-window burst
/// behaviour (delta_minus(2)) is dense but whose long-window rate is low.
[[nodiscard]] ArrivalModelPtr delta_curve(std::vector<Time> prefix, Time tail_period);

/// Like delta_curve(), but with an explicit *upper* distance curve as
/// well: `plus_prefix[i]` is delta_plus(i + 2), extended with slope
/// `plus_tail`.  Needed when the model feeds Lemma 4 (a finite
/// delta_plus bounds the window of a k-sequence) — e.g. for the derived
/// output models of chains on a path.  Requires delta_plus >= delta_minus
/// pointwise and plus_tail >= tail_period.
[[nodiscard]] ArrivalModelPtr delta_curve_with_plus(std::vector<Time> prefix, Time tail_period,
                                                    std::vector<Time> plus_prefix,
                                                    Time plus_tail);

/// Sporadic bursts: at most `burst_size` activations per window of
/// `outer_period`, spaced at least `inner_distance` apart within a burst
/// (the classic ISR overload model of the TWCA literature):
///   delta_minus(q) = floor((q-1)/n) * P + ((q-1) mod n) * d.
/// Requires outer_period >= (burst_size - 1) * inner_distance; delta_plus
/// is unbounded (sporadic).
[[nodiscard]] ArrivalModelPtr sporadic_burst(Time outer_period, Count burst_size,
                                             Time inner_distance);

/// Parses the textual form produced by ArrivalModel::describe():
///   periodic(P) | periodic_jitter(P,J[,dmin]) | sporadic(dmin) |
///   curve(d2,d3,...;tail) | burst(P,n,d)
/// Throws wharf::InvalidArgument on syntax errors.
[[nodiscard]] ArrivalModelPtr parse_arrival(const std::string& spec);

}  // namespace wharf

#endif  // WHARF_CORE_ARRIVAL_HPP
