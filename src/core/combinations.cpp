#include "core/combinations.hpp"

#include <algorithm>
#include <map>

#include "util/expect.hpp"
#include "util/strings.hpp"

namespace wharf {

int OverloadStructure::total_active() const {
  int total = 0;
  for (const auto& pc : per_chain) total += static_cast<int>(pc.active.size());
  return total;
}

OverloadStructure overload_structure(const System& system, int target) {
  WHARF_EXPECT(target >= 0 && target < system.size(),
               "chain index " << target << " out of range [0, " << system.size() << ")");
  WHARF_EXPECT(!system.chain(target).is_overload(),
               "DMM target '" << system.chain(target).name() << "' must not be an overload chain");
  OverloadStructure out;
  out.target = target;
  for (int a : system.overload_indices()) {
    OverloadActiveSegments entry;
    entry.chain = a;
    entry.active = active_segments_wrt(system.chain(a), system.chain(target));
    out.per_chain.push_back(std::move(entry));
  }
  return out;
}

namespace {

/// Per-chain alternatives: the empty choice plus every non-empty subset
/// of active segments drawn from a single segment (Def. 9).
std::vector<std::vector<ActiveSegmentId>> chain_choices(const OverloadActiveSegments& pc,
                                                        int chain_pos) {
  std::vector<std::vector<ActiveSegmentId>> choices;
  choices.emplace_back();  // the empty choice

  // Group active-segment indices by their parent segment.
  std::map<int, std::vector<int>> by_segment;
  for (int i = 0; i < static_cast<int>(pc.active.size()); ++i) {
    by_segment[pc.active[static_cast<std::size_t>(i)].segment_index].push_back(i);
  }
  for (const auto& [segment, members] : by_segment) {
    const int m = static_cast<int>(members.size());
    WHARF_EXPECT(m <= 20, "segment " << segment << " has " << m
                                     << " active segments; combination enumeration would "
                                        "require 2^"
                                     << m << " subsets");
    for (unsigned mask = 1; mask < (1u << m); ++mask) {
      std::vector<ActiveSegmentId> subset;
      for (int bit = 0; bit < m; ++bit) {
        if ((mask >> bit) & 1u) {
          subset.push_back(ActiveSegmentId{chain_pos, members[static_cast<std::size_t>(bit)]});
        }
      }
      choices.push_back(std::move(subset));
    }
  }
  return choices;
}

Time segment_cost(const OverloadStructure& structure, const ActiveSegmentId& id) {
  return structure.per_chain[static_cast<std::size_t>(id.chain_pos)]
      .active[static_cast<std::size_t>(id.active_index)]
      .cost;
}

}  // namespace

std::vector<Combination> enumerate_combinations(const System& system,
                                                const OverloadStructure& structure,
                                                std::size_t max_count) {
  (void)system;
  std::vector<Combination> result;
  result.emplace_back();  // start from the empty combination; dropped at the end

  for (int chain_pos = 0; chain_pos < static_cast<int>(structure.per_chain.size()); ++chain_pos) {
    const auto choices =
        chain_choices(structure.per_chain[static_cast<std::size_t>(chain_pos)], chain_pos);
    std::vector<Combination> next;
    next.reserve(result.size() * choices.size());
    for (const Combination& base : result) {
      for (const auto& choice : choices) {
        WHARF_EXPECT(next.size() < max_count,
                     "combination enumeration exceeded the cap of " << max_count
                                                                    << "; raise "
                                                                       "TwcaOptions::max_combinations");
        Combination c = base;
        for (const ActiveSegmentId& id : choice) {
          c.segments.push_back(id);
          c.cost = sat_add(c.cost, segment_cost(structure, id));
        }
        next.push_back(std::move(c));
      }
    }
    result = std::move(next);
  }

  // Drop the globally-empty combination (it is schedulable by definition
  // whenever the typical slack is non-negative).
  std::erase_if(result, [](const Combination& c) { return c.segments.empty(); });
  return result;
}

std::vector<Combination> unschedulable_combinations(const System& system,
                                                    const OverloadStructure& structure, Time slack,
                                                    std::size_t max_count) {
  WHARF_EXPECT(slack >= 0,
               "unschedulable_combinations requires non-negative slack (a negative slack means "
               "the chain misses deadlines even without overload); got "
                   << slack);
  std::vector<Combination> all = enumerate_combinations(system, structure, max_count);
  std::vector<Combination> out;
  for (Combination& c : all) {
    if (c.cost <= slack) continue;  // schedulable by Eq. (5)
    Time min_member = kTimeInfinity;
    for (const ActiveSegmentId& id : c.segments) {
      min_member = std::min(min_member, segment_cost(structure, id));
    }
    // Minimal iff removing the cheapest member makes it schedulable:
    // every proper subset then has cost <= slack as well.
    if (c.cost - min_member > slack) continue;
    out.push_back(std::move(c));
  }
  return out;
}

std::string format_combination(const System& system, const OverloadStructure& structure,
                               const Combination& combination) {
  std::string out = "{";
  for (std::size_t i = 0; i < combination.segments.size(); ++i) {
    const ActiveSegmentId& id = combination.segments[i];
    const auto& pc = structure.per_chain[static_cast<std::size_t>(id.chain_pos)];
    const Chain& chain = system.chain(pc.chain);
    if (i != 0) out += ',';
    out += format_task_list(chain, pc.active[static_cast<std::size_t>(id.active_index)].tasks);
  }
  out += '}';
  return out;
}

}  // namespace wharf
