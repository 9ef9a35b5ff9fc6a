#include "core/twca.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>

#include "ilp/packing.hpp"
#include "util/expect.hpp"
#include "util/strings.hpp"

namespace wharf {

std::string to_string(DmmStatus status) {
  switch (status) {
    case DmmStatus::kAlwaysMeets: return "always-meets";
    case DmmStatus::kBounded: return "bounded";
    case DmmStatus::kNoGuarantee: return "no-guarantee";
  }
  return "unknown";
}

// ---------------------------------------------------------------------
// Stage boundaries
// ---------------------------------------------------------------------

TargetArtifacts build_target_artifacts(const System& system, int target,
                                       const InterferenceContext& context,
                                       const LatencyResult& latency,
                                       const TwcaOptions& options) {
  const Chain& chain_b = system.chain(target);
  WHARF_EXPECT(chain_b.deadline().has_value(),
               "DMM computation requires chain '" << chain_b.name() << "' to have a deadline");

  TargetArtifacts data;
  if (!latency.bounded) {
    data.no_guarantee_reason = util::cat("latency analysis unbounded: ", latency.reason);
    return data;
  }
  if (latency.schedulable) {
    data.always_meets = true;
    return data;
  }
  if (system.overload_indices().empty()) {
    data.no_guarantee_reason =
        "chain can miss its deadline but the system declares no overload chains; TWCA "
        "attributes misses to overload only";
    return data;
  }

  data.structure = overload_structure(system, target);

  if (options.criterion == SchedulabilityCriterion::kExactEq3) {
    // Largest conceivable combination cost: every active segment of
    // every overload chain at once.
    Time max_cost = 0;
    for (const OverloadActiveSegments& pc : data.structure.per_chain) {
      for (const ActiveSegment& s : pc.active) max_cost = sat_add(max_cost, s.cost);
    }
    data.slack = exact_combination_slack(system, context, latency.K, max_cost,
                                         options.analysis);
  } else {
    data.slack = typical_slack(system, context, latency.K, options.analysis);
  }
  if (data.slack < 0) {
    data.no_guarantee_reason = util::cat(
        "negative slack (", data.slack,
        "): the chain can miss deadlines even when no overload chain is activated");
    return data;
  }

  data.unschedulable = unschedulable_combinations(system, data.structure, data.slack,
                                                  options.max_combinations);
  return data;
}

DmmResult dmm_from_artifacts(const System& system, int target, const LatencyResult& latency,
                             const TargetArtifacts& data, Count k, const TwcaOptions& options,
                             const PackingSolver& solver) {
  WHARF_EXPECT(k >= 1, "dmm requires k >= 1, got " << k);
  WHARF_EXPECT(target >= 0 && target < system.size(),
               "chain index " << target << " out of range [0, " << system.size() << ")");
  WHARF_EXPECT(!system.chain(target).is_overload(),
               "DMM target '" << system.chain(target).name()
                              << "' must not be an overload chain");

  DmmResult result;
  result.k = k;
  result.wcl = latency.bounded ? latency.wcl : 0;
  result.K = latency.K;
  result.n_b = latency.misses_per_window.value_or(0);
  result.slack = data.slack;

  if (data.no_guarantee_reason.has_value()) {
    result.status = DmmStatus::kNoGuarantee;
    result.reason = *data.no_guarantee_reason;
    result.dmm = k;
    return result;
  }
  if (data.always_meets) {
    result.status = DmmStatus::kAlwaysMeets;
    result.dmm = 0;
    return result;
  }

  // Lemma 4: Ω^a_b = η⁺_a(δ⁺_b(k) + WCL_b) + 1 per overload chain.
  const Chain& chain_b = system.chain(target);
  const Time delta_plus_k = chain_b.arrival().delta_plus(k);
  if (is_infinite(delta_plus_k)) {
    result.status = DmmStatus::kNoGuarantee;
    result.reason = util::cat("delta_plus(", k, ") of chain '", chain_b.name(),
                              "' is unbounded; Lemma 4 needs a finite window");
    result.dmm = k;
    return result;
  }
  const Time window = sat_add(delta_plus_k, latency.wcl);
  for (const OverloadActiveSegments& pc : data.structure.per_chain) {
    const Count eta = system.chain(pc.chain).arrival().eta_plus(window);
    if (eta == kCountInfinity) {
      result.status = DmmStatus::kNoGuarantee;
      result.reason = util::cat("eta_plus of overload chain '", system.chain(pc.chain).name(),
                                "' is unbounded over the Lemma-4 window");
      result.dmm = k;
      return result;
    }
    result.omegas.push_back(eta + 1);
  }

  result.combination_count = data.unschedulable.size();
  result.unschedulable_count = data.unschedulable.size();
  result.status = DmmStatus::kBounded;

  if (data.unschedulable.empty()) {
    // No overload combination can cause a miss per Eq. (5): dmm == 0.
    result.dmm = 0;
    return result;
  }

  // Theorem 3: pack unschedulable combinations into busy windows under
  // per-(chain, active segment) capacities Ω^a_b.
  ilp::PackingProblem packing;
  std::vector<int> resource_offset(data.structure.per_chain.size() + 1, 0);
  for (std::size_t i = 0; i < data.structure.per_chain.size(); ++i) {
    resource_offset[i + 1] =
        resource_offset[i] + static_cast<int>(data.structure.per_chain[i].active.size());
  }
  packing.capacities.resize(static_cast<std::size_t>(resource_offset.back()), 0);
  for (std::size_t i = 0; i < data.structure.per_chain.size(); ++i) {
    for (std::size_t s = 0; s < data.structure.per_chain[i].active.size(); ++s) {
      packing.capacities[static_cast<std::size_t>(resource_offset[i]) + s] = result.omegas[i];
    }
  }
  for (const Combination& c : data.unschedulable) {
    std::vector<int> resources;
    resources.reserve(c.segments.size());
    for (const ActiveSegmentId& id : c.segments) {
      resources.push_back(resource_offset[static_cast<std::size_t>(id.chain_pos)] +
                          id.active_index);
    }
    packing.item_resources.push_back(std::move(resources));
  }

  const ilp::PackingSolution packed = solver ? solver(packing) : ilp::solve_packing_ilp(packing);
  result.packing_optimum = packed.total;
  result.solver_nodes = packed.nodes;

  Time dmm = sat_mul(result.n_b, packed.total);
  if (options.cap_at_k) dmm = std::min<Time>(dmm, k);
  result.dmm = dmm;
  return result;
}

// ---------------------------------------------------------------------
// TwcaAnalyzer
// ---------------------------------------------------------------------

struct TwcaAnalyzer::Impl {
  System system;
  TwcaOptions options;
  mutable std::vector<std::optional<InterferenceContext>> context_cache;
  mutable std::vector<std::optional<LatencyResult>> latency_cache;
  mutable std::vector<std::optional<LatencyResult>> typical_latency_cache;
  mutable std::vector<std::optional<TargetArtifacts>> artifact_cache;
  /// One lock per chain: the public methods hold the target chain's lock
  /// for the whole query, so concurrent queries on *different* chains of
  /// one analyzer run in parallel while each chain's cache slots stay
  /// write-once.  Returned references remain valid after unlocking
  /// because engaged slots are never reassigned and the vectors are
  /// never resized.
  mutable std::unique_ptr<std::mutex[]> chain_locks;

  Impl(System sys, TwcaOptions opts) : system(std::move(sys)), options(opts) {
    const auto n = static_cast<std::size_t>(system.size());
    context_cache.resize(n);
    latency_cache.resize(n);
    typical_latency_cache.resize(n);
    artifact_cache.resize(n);
    chain_locks = std::make_unique<std::mutex[]>(n);
  }

  std::unique_lock<std::mutex> lock_chain(int chain) const {
    return std::unique_lock<std::mutex>(chain_locks[static_cast<std::size_t>(chain)]);
  }

  const InterferenceContext& context(int chain) const {
    auto& slot = context_cache[static_cast<std::size_t>(chain)];
    if (!slot.has_value()) slot = make_interference_context(system, chain);
    return *slot;
  }

  const LatencyResult& latency(int chain) const {
    auto& slot = latency_cache[static_cast<std::size_t>(chain)];
    if (!slot.has_value()) slot = latency_analysis(system, chain, options.analysis);
    return *slot;
  }

  const LatencyResult& latency_without_overload(int chain) const {
    auto& slot = typical_latency_cache[static_cast<std::size_t>(chain)];
    if (!slot.has_value()) {
      slot = latency_analysis(system, chain, options.analysis, system.overload_indices());
    }
    return *slot;
  }

  /// Builds (and caches) everything about chain `b` that Theorem 3 needs
  /// and that does not depend on k.
  const TargetArtifacts& artifacts(int b) const {
    auto& slot = artifact_cache[static_cast<std::size_t>(b)];
    if (!slot.has_value()) {
      slot = build_target_artifacts(system, b, context(b), latency(b), options);
    }
    return *slot;
  }
};

TwcaAnalyzer::TwcaAnalyzer(System system, TwcaOptions options)
    : impl_(std::make_unique<Impl>(std::move(system), options)) {}

TwcaAnalyzer::~TwcaAnalyzer() = default;
TwcaAnalyzer::TwcaAnalyzer(TwcaAnalyzer&&) noexcept = default;
TwcaAnalyzer& TwcaAnalyzer::operator=(TwcaAnalyzer&&) noexcept = default;

const System& TwcaAnalyzer::system() const { return impl_->system; }
const TwcaOptions& TwcaAnalyzer::options() const { return impl_->options; }

const LatencyResult& TwcaAnalyzer::latency(int chain) const {
  WHARF_EXPECT(chain >= 0 && chain < impl_->system.size(),
               "chain index " << chain << " out of range [0, " << impl_->system.size() << ")");
  const auto lock = impl_->lock_chain(chain);
  return impl_->latency(chain);
}

const LatencyResult& TwcaAnalyzer::latency_without_overload(int chain) const {
  WHARF_EXPECT(chain >= 0 && chain < impl_->system.size(),
               "chain index " << chain << " out of range [0, " << impl_->system.size() << ")");
  const auto lock = impl_->lock_chain(chain);
  return impl_->latency_without_overload(chain);
}

DmmResult TwcaAnalyzer::dmm(int b, Count k) const {
  WHARF_EXPECT(k >= 1, "dmm requires k >= 1, got " << k);
  const System& system = impl_->system;
  WHARF_EXPECT(b >= 0 && b < system.size(),
               "chain index " << b << " out of range [0, " << system.size() << ")");
  WHARF_EXPECT(!system.chain(b).is_overload(),
               "DMM target '" << system.chain(b).name() << "' must not be an overload chain");

  const auto lock = impl_->lock_chain(b);
  const LatencyResult& latency = impl_->latency(b);
  const TargetArtifacts& artifacts = impl_->artifacts(b);
  return dmm_from_artifacts(system, b, latency, artifacts, k, impl_->options);
}

std::vector<DmmResult> TwcaAnalyzer::dmm_curve(int chain, const std::vector<Count>& ks) const {
  std::vector<DmmResult> out;
  out.reserve(ks.size());
  for (Count k : ks) out.push_back(dmm(chain, k));
  return out;
}

bool TwcaAnalyzer::satisfies_weakly_hard(int chain, Count m, Count k) const {
  WHARF_EXPECT(m >= 0, "weakly-hard m must be >= 0, got " << m);
  return dmm(chain, k).dmm <= m;
}

}  // namespace wharf
