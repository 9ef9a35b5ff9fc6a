/// \file arrival_table.hpp
/// Flattened, devirtualized arrival-curve evaluation for the busy-window
/// hot path.
///
/// The busy-window kernel (busy_window.cpp) evaluates eta_plus and
/// delta_minus thousands of times per fixed point.  Going through the
/// ArrivalModel vtable per call — and, for explicit curves, through a
/// prefix scan — puts an indirect branch on every term of Eq. (1).  An
/// ArrivalTable is built from the model's ArrivalTailSpec (arrival.hpp)
/// once per chain per session lineage: the session owns the table
/// (ArrivalTables, interference.hpp), and every interference context it
/// builds holds a shared reference, which the store still charges in
/// full.  The table holds a dense prefix of delta_minus values
/// plus the arithmetic tail (block, span), after which both queries are
/// a branch-free binary search / direct index plus O(block) integer
/// arithmetic, bit-identical to the virtual path.
///
/// Models without a tail spec (or with a dense prefix too large to
/// materialize) keep working: the table falls back to the wrapped
/// model's virtual evaluation, so flattening is purely an optimization.

#ifndef WHARF_CORE_ARRIVAL_TABLE_HPP
#define WHARF_CORE_ARRIVAL_TABLE_HPP

#include <cstddef>
#include <vector>

#include "core/arrival.hpp"
#include "util/types.hpp"

namespace wharf {

/// Precomputed flat view of one ArrivalModel's delta_minus curve (see
/// the file comment).  Immutable after construction; cheap to share.
class ArrivalTable {
 public:
  /// Builds the dense prefix + tail representation from `model`'s
  /// ArrivalTailSpec; degenerates to a virtual-dispatch wrapper (see
  /// flat()) when the model has no spec or its prefix would be huge.
  explicit ArrivalTable(ArrivalModelPtr model);

  /// Same value as model().eta_plus(window), without virtual dispatch
  /// on the flat path.
  [[nodiscard]] Count eta_plus(Time window) const;

  /// Same value as model().delta_minus(q), without virtual dispatch on
  /// the flat path.
  [[nodiscard]] Time delta_minus(Count q) const;

  /// The wrapped model (always non-null).
  [[nodiscard]] const ArrivalModel& model() const { return *model_; }

  /// True when the dense-prefix representation is active; false means
  /// every query falls back to virtual evaluation.
  [[nodiscard]] bool flat() const { return !delta_.empty(); }

  /// Heap footprint of the dense prefix, for store weight accounting.
  [[nodiscard]] std::size_t heap_bytes() const { return delta_.capacity() * sizeof(Time); }

  /// The tail (meaningful only when flat()): dense_prefix()[i] is
  /// delta_minus(i + 1), and every q beyond the prefix obeys
  /// delta_minus(q) = delta_minus(q - block()) + span().
  [[nodiscard]] const std::vector<Time>& dense_prefix() const { return delta_; }
  [[nodiscard]] Count block() const { return block_; }  ///< recurrence stride
  [[nodiscard]] Time span() const { return span_; }     ///< distance per stride

 private:
  ArrivalModelPtr model_;
  /// delta_[i] == delta_minus(i + 1); covers q in [1, valid_from + block - 1],
  /// so every residue class of the tail recurrence has a dense anchor.
  std::vector<Time> delta_;
  Count block_ = 1;
  Time span_ = 1;
};

}  // namespace wharf

#endif  // WHARF_CORE_ARRIVAL_TABLE_HPP
