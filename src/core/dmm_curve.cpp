#include "core/dmm_curve.hpp"

#include "util/expect.hpp"

namespace wharf {

std::vector<DmmBreakpoint> dmm_breakpoints(const std::function<Count(Count)>& dmm_at,
                                           Count k_max) {
  WHARF_EXPECT(k_max >= 1, "k_max must be >= 1, got " << k_max);
  std::vector<DmmBreakpoint> out;
  Count k = 1;
  Count current = dmm_at(1);
  out.push_back(DmmBreakpoint{1, current});

  const Count at_max = dmm_at(k_max);
  while (current < at_max) {
    // Find the smallest k' in (k, k_max] with dmm(k') > current.
    Count lo = k + 1;
    Count hi = k_max;
    while (lo < hi) {
      const Count mid = lo + (hi - lo) / 2;
      if (dmm_at(mid) > current) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    k = lo;
    current = dmm_at(k);
    out.push_back(DmmBreakpoint{k, current});
  }
  return out;
}

}  // namespace wharf
