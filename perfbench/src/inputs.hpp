// Seeded input generation of the workloads.  Everything a run feeds
// to wharf is produced here, in set-up, from the --seed argument alone;
// input_digest() hashes it for the self-test's determinism check.

#ifndef PERFBENCH_INPUTS_HPP
#define PERFBENCH_INPUTS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.hpp"

namespace perfbench {

/// analyze_cold: distinct systems analysed one per op (cycled when the
/// loop outruns the pool).
inline constexpr int kAnalyzePool = 4096;
[[nodiscard]] std::vector<wharf::System> analyze_cold_inputs(std::uint64_t seed);

/// The dmm horizons of `wharf analyze` in this benchmark.
[[nodiscard]] const std::vector<wharf::Count>& analyze_ks();

/// search_warm: the four 8-chain systems whose priorities are climbed.
inline constexpr int kSearchSystems = 4;
[[nodiscard]] std::vector<wharf::System> search_warm_inputs(std::uint64_t seed);

/// sweep_saturated: the near-saturation fixture and the seeded random
/// candidate priority assignments one sweep scores.
inline constexpr int kSweepCandidates = 8;
struct SweepInputs {
  wharf::System base;
  std::vector<std::vector<wharf::Priority>> candidates;
};
[[nodiscard]] SweepInputs sweep_saturated_inputs(std::uint64_t seed);
/// Index of the chain whose with-overload busy window reaches the K_b
/// cap on the sweep fixture (long-run load 1.00029).
inline constexpr int kSweepCappedChain = 0;

/// FNV-1a digest of every input `workload` generates for `seed`.
[[nodiscard]] std::uint64_t input_digest(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_HPP
