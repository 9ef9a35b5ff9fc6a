#include "core/interference.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace wharf {

ArrivalTables build_arrival_tables(const System& system, const ArrivalTables& reuse) {
  ArrivalTables tables;
  tables.reserve(static_cast<std::size_t>(system.size()));
  for (const Chain& chain : system.chains()) {
    const auto kept = std::find_if(reuse.begin(), reuse.end(), [&](const auto& table) {
      return &table->model() == chain.arrival_ptr().get();
    });
    tables.push_back(kept != reuse.end()
                         ? *kept
                         : std::make_shared<const ArrivalTable>(chain.arrival_ptr()));
  }
  return tables;
}

InterferenceContext make_interference_context(const System& system, int target,
                                              const ArrivalTables& tables) {
  WHARF_EXPECT(target >= 0 && target < system.size(),
               "chain index " << target << " out of range [0, " << system.size() << ")");
  WHARF_ASSERT(tables.size() == static_cast<std::size_t>(system.size()));
  InterferenceContext ctx;
  ctx.target = target;
  const Chain& b = system.chain(target);
  ctx.self_header = header_subchain(b);
  ctx.self_header_cost = cost_of(b, ctx.self_header);
  ctx.self_table = tables[static_cast<std::size_t>(target)];

  for (int a = 0; a < system.size(); ++a) {
    if (a == target) continue;
    const Chain& chain_a = system.chain(a);
    ChainInterference info;
    info.chain = a;
    info.table = tables[static_cast<std::size_t>(a)];
    info.deferred = is_deferred(chain_a, b);
    if (info.deferred) {
      info.segments = segments_wrt(chain_a, b);
      info.critical = critical_segment(chain_a, b);
      info.header_segment = header_segment_wrt(chain_a, b);
      info.header_segment_cost = cost_of(chain_a, info.header_segment);
      for (const Segment& s : info.segments) {
        info.segments_total_cost = sat_add(info.segments_total_cost, s.cost);
      }
    }
    ctx.others.push_back(std::move(info));
  }
  return ctx;
}

InterferenceContext make_interference_context(const System& system, int target) {
  return make_interference_context(system, target, build_arrival_tables(system));
}

}  // namespace wharf
