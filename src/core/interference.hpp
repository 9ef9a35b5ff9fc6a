/// \file interference.hpp
/// Per-target-chain interference classification, precomputed once and
/// shared by the busy-window fixed point (Theorem 1), the typical bound
/// L_b(q) (Eq. 4) and the TWCA combination machinery.

#ifndef WHARF_CORE_INTERFERENCE_HPP
#define WHARF_CORE_INTERFERENCE_HPP

#include <memory>
#include <optional>
#include <vector>

#include "core/arrival_table.hpp"
#include "core/segments.hpp"
#include "core/system.hpp"

namespace wharf {

/// How one other chain σ_a interferes with the analyzed chain σ_b.
struct ChainInterference {
  int chain = -1;          ///< index of σ_a in the system
  bool deferred = false;   ///< Def. 2: σ_a ∈ DC(b)?  (else σ_a ∈ IC(b))
  /// Filled only when deferred:
  std::vector<Segment> segments;       ///< Def. 3, S^a_b
  std::optional<Segment> critical;     ///< Def. 4
  std::vector<int> header_segment;     ///< Def. 5 (w.r.t. b), task indices
  Time header_segment_cost = 0;        ///< C_{s_header_{a,b}}
  Time segments_total_cost = 0;        ///< Σ_{s ∈ S^a_b} C_s
  /// Flat arrival table of σ_a (arrival_table.hpp), so the busy-window
  /// kernel evaluates η⁺ without virtual dispatch.  Shared, not owned:
  /// it points into the ArrivalTables set the context was built from
  /// (one per session lineage), and keeps that table alive if the
  /// context outlives the set.  The store still charges sizeof plus
  /// heap_bytes() per reference (weight_of), so an artifact weighs the
  /// same whoever else holds its tables.  May be null in hand-built
  /// contexts; the kernel then falls back to the chain's arrival model.
  std::shared_ptr<const ArrivalTable> table;
};

/// Everything the latency analysis of chain σ_b needs to know about the
/// rest of the system.
struct InterferenceContext {
  int target = -1;  ///< index of σ_b
  /// Def. 5 (first bullet) for σ_b itself: prefix before σ_b's own
  /// lowest-priority task; used by the asynchronous self-interference
  /// term of Eq. (1).
  std::vector<int> self_header;
  Time self_header_cost = 0;
  /// One entry per chain other than σ_b, in chain order.
  std::vector<ChainInterference> others;
  /// Flat arrival table of σ_b itself, shared and charged like
  /// ChainInterference::table (null in hand-built contexts).
  std::shared_ptr<const ArrivalTable> self_table;
};

/// One flat arrival table per chain of a system, index-aligned with
/// System::chains().  A table depends on nothing but its chain's
/// arrival model, so every context of one system, and of any variant
/// that keeps the chain's model (priority or deadline changes), can
/// reference the same table.
using ArrivalTables = std::vector<std::shared_ptr<const ArrivalTable>>;

/// The tables of every chain of `system`.  A chain whose arrival model
/// (the same ArrivalModelPtr) already has a table in `reuse` shares it;
/// only the others are built.
[[nodiscard]] ArrivalTables build_arrival_tables(const System& system,
                                                 const ArrivalTables& reuse = {});

/// Builds the interference context of chain `target`, referencing the
/// flat tables of `tables` (build_arrival_tables(system) or a set
/// shared with it).
[[nodiscard]] InterferenceContext make_interference_context(const System& system, int target,
                                                            const ArrivalTables& tables);

/// Builds the interference context of chain `target` over freshly built
/// tables.
[[nodiscard]] InterferenceContext make_interference_context(const System& system, int target);

}  // namespace wharf

#endif  // WHARF_CORE_INTERFERENCE_HPP
