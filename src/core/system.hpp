/// \file system.hpp
/// A uniprocessor SPP system: a finite set of disjoint task chains.

#ifndef WHARF_CORE_SYSTEM_HPP
#define WHARF_CORE_SYSTEM_HPP

#include <optional>
#include <string>
#include <vector>

#include "core/chain.hpp"

namespace wharf {

/// The system model of Section II: disjoint task chains on one processor
/// under Static Priority Preemptive scheduling.  Validation enforces the
/// paper's standing assumptions: globally unique task priorities (the
/// paper's strict comparisons presume a total priority order) and
/// synchronous overload chains.
class System {
 public:
  /// Validates and builds; see class comment for the invariants.
  System(std::string name, std::vector<Chain> chains);

  /// The system's name (reports and keys carry it).
  [[nodiscard]] const std::string& name() const { return name_; }
  /// All chains, in declaration order (indices are chain ids).
  [[nodiscard]] const std::vector<Chain>& chains() const { return chains_; }
  /// Number of chains m.
  [[nodiscard]] int size() const { return static_cast<int>(chains_.size()); }
  [[nodiscard]] const Chain& chain(int i) const { return chains_[static_cast<std::size_t>(i)]; }
  /// Index of the chain with the given name, if any.
  [[nodiscard]] std::optional<int> chain_index(const std::string& chain_name) const;

  /// Total number of tasks across all chains.
  [[nodiscard]] int task_count() const { return task_count_; }
  /// Indices of overload chains (the paper's C_over), in chain order.
  [[nodiscard]] const std::vector<int>& overload_indices() const { return overload_indices_; }
  /// Indices of non-overload chains, in chain order.
  [[nodiscard]] const std::vector<int>& regular_indices() const { return regular_indices_; }

  /// Long-run processor utilization upper bound: Σ_a C_a · rate⁺_a.
  [[nodiscard]] double utilization() const;

  /// Priorities of all tasks in flat order (chains in order, tasks in
  /// order).  Companion of with_priorities() for Experiment 2.
  [[nodiscard]] std::vector<Priority> flat_priorities() const;

  /// Returns a copy of this system with task priorities replaced by
  /// `priorities` (flat order, size == task_count()).  Used to explore
  /// random priority assignments (paper Experiment 2).  Copies the
  /// chains as they are and checks only what can change: the arity and
  /// that the new priorities are unique (errors read as the
  /// constructor's).
  [[nodiscard]] System with_priorities(const std::vector<Priority>& priorities) const;

  /// Returns a copy of this system with the deadline of chain `chain`
  /// replaced (std::nullopt removes it).  Used by path analysis to give
  /// a chain its per-chain deadline budget.
  [[nodiscard]] System with_deadline(int chain, std::optional<Time> deadline) const;

 private:
  std::string name_;
  std::vector<Chain> chains_;
  int task_count_ = 0;
  std::vector<int> overload_indices_;
  std::vector<int> regular_indices_;
};

}  // namespace wharf

#endif  // WHARF_CORE_SYSTEM_HPP
