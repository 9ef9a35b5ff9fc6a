/// \file packing_reference.hpp
/// Declarations of the packing cross-check oracles in
/// packing_reference.cpp.  They live outside libwharf in the
/// `wharf_oracles` target, which only the tests and benches link.

#ifndef WHARF_ORACLES_PACKING_REFERENCE_HPP
#define WHARF_ORACLES_PACKING_REFERENCE_HPP

#include <cstddef>
#include <vector>

#include "core/combinations.hpp"
#include "core/twca.hpp"
#include "ilp/packing.hpp"

namespace wharf {

/// The two slower exact paths of Theorem 3, kept as references for the
/// production path (minimal unschedulable combinations packed by the
/// branch-and-bound ILP).  Neither can change a dmm: any exact packer
/// finds the same optimum, and an optimal packing can swap a non-minimal
/// combination for a minimal subset without losing value (Section V-C;
/// see combinations.hpp).  The tests and bench_ablation_ilp check both
/// claims on every run.
namespace reference {

/// Exact packing by bounded depth-first enumeration, independent of the
/// LP machinery.  Exponential; for cross-checks on small instances.
[[nodiscard]] ilp::PackingSolution solve_packing_dfs(const ilp::PackingProblem& problem);

/// Every unschedulable combination (Eq. 5: cost > slack), minimal or
/// not, filtered from enumerate_combinations().
[[nodiscard]] std::vector<Combination> all_unschedulable_combinations(
    const System& system, const OverloadStructure& structure, Time slack, std::size_t max_count);

/// Which slower path(s) reference::dmm() takes.
struct DmmPaths {
  bool full_combination_set = false;  ///< pack every unschedulable combination
  bool dfs_packer = false;            ///< solve the packing with solve_packing_dfs
};

/// dmm(k) of `target` through the public stage boundaries
/// (make_interference_context, latency_analysis, build_target_artifacts,
/// dmm_from_artifacts), with the unschedulable set and the packing
/// solver swapped per `paths`.  With default paths it is the production
/// computation.
[[nodiscard]] DmmResult dmm(const System& system, int target, Count k,
                            const TwcaOptions& options, DmmPaths paths);

}  // namespace reference

}  // namespace wharf

#endif  // WHARF_ORACLES_PACKING_REFERENCE_HPP
