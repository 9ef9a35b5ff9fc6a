#include "engine/artifact_types.hpp"

namespace wharf {

std::size_t weight_of(const InterferenceContext& ctx) {
  std::size_t total = sizeof(ctx) + util::heap_bytes(ctx.self_header);
  if (ctx.self_table) total += sizeof(ArrivalTable) + ctx.self_table->heap_bytes();
  for (const ChainInterference& info : ctx.others) {
    total += sizeof(info) + util::heap_bytes(info.header_segment);
    for (const Segment& s : info.segments) total += sizeof(s) + util::heap_bytes(s.tasks);
    if (info.critical.has_value()) total += util::heap_bytes(info.critical->tasks);
    if (info.table) total += sizeof(ArrivalTable) + info.table->heap_bytes();
  }
  return total;
}

std::size_t weight_of(const LatencyResult& r) {
  return sizeof(r) + util::heap_bytes(r.busy_times) + util::heap_bytes(r.reason);
}

std::size_t weight_of(const TargetArtifacts& a) {
  std::size_t total = sizeof(a);
  for (const OverloadActiveSegments& pc : a.structure.per_chain) {
    total += sizeof(pc);
    for (const ActiveSegment& s : pc.active) total += sizeof(s) + util::heap_bytes(s.tasks);
  }
  for (const Combination& c : a.unschedulable) total += sizeof(c) + util::heap_bytes(c.segments);
  if (a.no_guarantee_reason.has_value()) total += util::heap_bytes(*a.no_guarantee_reason);
  return total;
}

std::size_t weight_of(const DmmResult& r) {
  return sizeof(r) + util::heap_bytes(r.omegas) + util::heap_bytes(r.reason);
}

std::size_t weight_of(const ilp::PackingSolution& s) {
  return sizeof(s) + util::heap_bytes(s.counts);
}

}  // namespace wharf
