/// \file artifact_types.hpp
/// The closed set of artifact value types the engine stores: one field
/// list per type and one tag list, walked by everything that must agree
/// on what the store's type-erased values are.
///
/// The ArtifactStore itself is type-erased (shared_ptr<const void> +
/// weight).  The pipeline weighs what it computes with weight_of(); the
/// snapshot writer and reader (store_persist.cpp) encode and decode the
/// same kFields lists and dispatch on the same PersistedArtifacts tags.
/// Adding a stage artifact means a kFields list for each new struct,
/// naming every member in declaration order, and a PersistedArtifacts
/// entry under a *new* tag (tags and field order are the on-disk format:
/// never renumber, reuse or reorder them).

#ifndef WHARF_ENGINE_ARTIFACT_TYPES_HPP
#define WHARF_ENGINE_ARTIFACT_TYPES_HPP

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <type_traits>

#include "core/twca.hpp"
#include "ilp/packing.hpp"

namespace wharf {

/// The members of a stored struct, in declaration order, as a tuple of
/// member pointers: its snapshot layout and its weight walk.  Defined
/// for the artifact types and every struct nested in them.
template <typename T>
inline constexpr auto kFields = nullptr;

template <>
inline constexpr auto kFields<Segment> = std::tuple{
    &Segment::tasks, &Segment::wraps, &Segment::cost};
template <>
inline constexpr auto kFields<ChainInterference> = std::tuple{
    &ChainInterference::chain, &ChainInterference::deferred, &ChainInterference::segments,
    &ChainInterference::critical, &ChainInterference::header_segment,
    &ChainInterference::header_segment_cost, &ChainInterference::segments_total_cost,
    &ChainInterference::table};
template <>
inline constexpr auto kFields<InterferenceContext> = std::tuple{
    &InterferenceContext::target, &InterferenceContext::self_header,
    &InterferenceContext::self_header_cost, &InterferenceContext::others,
    &InterferenceContext::self_table};
template <>
inline constexpr auto kFields<LatencyResult> = std::tuple{
    &LatencyResult::bounded, &LatencyResult::reason, &LatencyResult::K, &LatencyResult::busy_times,
    &LatencyResult::wcl, &LatencyResult::worst_q, &LatencyResult::misses_per_window,
    &LatencyResult::schedulable};
template <>
inline constexpr auto kFields<ActiveSegment> = std::tuple{
    &ActiveSegment::segment_index, &ActiveSegment::tasks, &ActiveSegment::cost};
template <>
inline constexpr auto kFields<OverloadActiveSegments> = std::tuple{
    &OverloadActiveSegments::chain, &OverloadActiveSegments::active};
template <>
inline constexpr auto kFields<OverloadStructure> = std::tuple{
    &OverloadStructure::target, &OverloadStructure::per_chain};
template <>
inline constexpr auto kFields<ActiveSegmentId> = std::tuple{
    &ActiveSegmentId::chain_pos, &ActiveSegmentId::active_index};
template <>
inline constexpr auto kFields<Combination> = std::tuple{&Combination::segments, &Combination::cost};
template <>
inline constexpr auto kFields<TargetArtifacts> = std::tuple{
    &TargetArtifacts::slack, &TargetArtifacts::structure, &TargetArtifacts::unschedulable,
    &TargetArtifacts::no_guarantee_reason, &TargetArtifacts::always_meets};
template <>
inline constexpr auto kFields<DmmResult> = std::tuple{
    &DmmResult::k, &DmmResult::dmm, &DmmResult::status, &DmmResult::reason, &DmmResult::wcl,
    &DmmResult::K, &DmmResult::n_b, &DmmResult::slack, &DmmResult::omegas,
    &DmmResult::combination_count, &DmmResult::unschedulable_count, &DmmResult::packing_optimum,
    &DmmResult::solver_nodes};
template <>
inline constexpr auto kFields<ilp::PackingSolution> = std::tuple{
    &ilp::PackingSolution::total, &ilp::PackingSolution::counts, &ilp::PackingSolution::nodes};

/// Calls f(member) for every member of `record` in kFields order.
template <typename T, typename F>
void for_each_field(T& record, F&& f) {
  // `record.*member` is const exactly when `record` is.
  std::apply([&](auto... member) { (f(record.*member), ...); }, kFields<std::remove_const_t<T>>);
}

/// One persisted artifact type and its snapshot type tag.
template <typename T, std::uint8_t Tag>
struct Persisted {
  using type = T;                           ///< the artifact value type
  static constexpr std::uint8_t tag = Tag;  ///< its frozen snapshot tag
};

/// A list of Persisted entries (store_persist.cpp dispatches a record's
/// tag over the pack).
template <typename... Entries>
struct ArtifactList {
  /// Tag of T; 0 (untyped, not persistable) for a type not listed.
  template <typename T>
  static constexpr std::uint8_t tag_of =
      ((std::is_same_v<T, typename Entries::type> ? Entries::tag : 0) | ...);
};

/// Every stage artifact type with the tag written per record into store
/// snapshots.  Tag 0 marks entries inserted through the untagged store
/// API; save() skips them.  Tag 6 is retired: it named a batched
/// busy-window marker that format-2 snapshots carried, and a record with
/// tag 6 now reads as corruption.
using PersistedArtifacts =
    ArtifactList<Persisted<InterferenceContext, 1>, Persisted<LatencyResult, 2>,
                 Persisted<TargetArtifacts, 3>, Persisted<DmmResult, 4>,
                 Persisted<ilp::PackingSolution, 5>>;

/// Resident bytes of a PersistedArtifacts type: sizeof(T) plus the heap
/// its kFields walk owns (string and trivially copyable vector buffers,
/// sizeof plus walk per element of a vector of structs, an engaged
/// optional's value, sizeof plus buffer of a flattened arrival table).
template <typename T>
[[nodiscard]] std::size_t weight_of(const T& artifact);

}  // namespace wharf

#endif  // WHARF_ENGINE_ARTIFACT_TYPES_HPP
