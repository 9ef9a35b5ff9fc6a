/// \file worker_pool.hpp
/// A small fork-join worker pool for embarrassingly parallel index
/// ranges.  The library starts parallel work in two places only, both
/// under a --jobs knob: Session::serve across the queries of one call,
/// and PipelineEvaluator::evaluate_many across the candidates of one
/// batch.
///
/// Determinism contract: parallel_for_index(n, body) invokes body(i)
/// exactly once for every i in [0, n); bodies write to disjoint,
/// preallocated result slots, so the outcome is identical for any
/// thread count (the Engine's bit-identical-reports guarantee).

#ifndef WHARF_UTIL_WORKER_POOL_HPP
#define WHARF_UTIL_WORKER_POOL_HPP

#include <cstddef>
#include <functional>

namespace wharf::util {

/// Number of hardware threads (>= 1) — the default for jobs=0 knobs.
[[nodiscard]] int hardware_jobs();

/// Runs body(0), ..., body(n-1), distributing indices over `jobs`
/// threads through one shared atomic counter: whichever thread is free
/// takes the next index, which also balances skewed body costs (bodies
/// never spawn bodies).  jobs <= 1 runs inline on the caller
/// thread; jobs == 0 uses hardware_jobs().  The first exception thrown
/// by any body is rethrown on the caller thread after all workers have
/// drained (bodies that already started still complete).
void parallel_for_index(std::size_t n, int jobs,
                        const std::function<void(std::size_t)>& body);

}  // namespace wharf::util

#endif  // WHARF_UTIL_WORKER_POOL_HPP
