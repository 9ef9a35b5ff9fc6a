/// \file artifact_types.hpp
/// The closed set of artifact value types the engine stores, with their
/// persistent type tags and byte-weight accounting.
///
/// The ArtifactStore itself is type-erased (shared_ptr<const void> +
/// weight); everything that must agree on what those voids actually are
/// — the pipeline that computes them, the persistence layer that
/// serializes them (store_persist.hpp), and the weight re-accounting on
/// load — includes this header instead of hard-coding its own list.
/// Adding a stage artifact means adding an enumerator here (a *new*
/// value — tags are part of the on-disk format and must never be
/// reused), a weight_of overload, and a serializer pair in
/// store_persist.cpp.

#ifndef WHARF_ENGINE_ARTIFACT_TYPES_HPP
#define WHARF_ENGINE_ARTIFACT_TYPES_HPP

#include <cstddef>
#include <cstdint>

#include "core/twca.hpp"
#include "ilp/packing.hpp"
#include "util/weight.hpp"

namespace wharf {

/// Persistent tag naming the concrete type behind a store entry's
/// type-erased value.  Written per record into store snapshots, so the
/// numeric values are frozen: never renumber or reuse one.  kUntyped (0)
/// marks entries inserted through the legacy untagged API — they are
/// skipped by save() (nothing knows how to serialize them).  Tag 6 is
/// retired: it named a batched busy-window marker that format-2
/// snapshots carried; a record with tag 6 now reads as corruption.
enum class ArtifactType : std::uint8_t {
  kUntyped = 0,             ///< no tag recorded; not persistable
  kInterferenceContext = 1, ///< stage 1, InterferenceContext
  kLatencyResult = 2,       ///< stage 2, LatencyResult
  kTargetArtifacts = 3,     ///< stage 3, TargetArtifacts
  kDmmResult = 4,           ///< stage 4, DmmResult
  kPackingSolution = 5,     ///< stage 5, ilp::PackingSolution
};

/// Resident bytes of a stage-1 interference context (struct, headers,
/// segments, flattened arrival tables).
[[nodiscard]] std::size_t weight_of(const InterferenceContext& ctx);

/// Resident bytes of a stage-2 latency result.
[[nodiscard]] std::size_t weight_of(const LatencyResult& r);

/// Resident bytes of the stage-3 k-independent overload artifacts.
[[nodiscard]] std::size_t weight_of(const TargetArtifacts& a);

/// Resident bytes of a stage-4 dmm(k) result.
[[nodiscard]] std::size_t weight_of(const DmmResult& r);

/// Resident bytes of a stage-5 packing solution.
[[nodiscard]] std::size_t weight_of(const ilp::PackingSolution& s);

}  // namespace wharf

#endif  // WHARF_ENGINE_ARTIFACT_TYPES_HPP
