/// \file chain.hpp
/// Task chains: the unit of activation, analysis and deadline in the paper.

#ifndef WHARF_CORE_CHAIN_HPP
#define WHARF_CORE_CHAIN_HPP

#include <optional>
#include <string>
#include <vector>

#include "core/arrival.hpp"
#include "core/task.hpp"
#include "util/types.hpp"

namespace wharf {

/// Execution semantics of a chain (Section II):
///  * synchronous — an incoming activation is not processed until the
///    previous instances of the chain have finished;
///  * asynchronous — incoming activations are processed independently of
///    previous instances (instances may overlap and self-interfere).
enum class ChainKind { kSynchronous, kAsynchronous };

/// Human-readable kind name ("synchronous" / "asynchronous").
[[nodiscard]] std::string to_string(ChainKind kind);

/// A task chain σ: a finite sequence of distinct tasks activating each
/// other, an activation model for the header task, an optional relative
/// end-to-end deadline, and an overload flag (member of the paper's set
/// C_over of rarely-activated chains that cause transient overload).
class Chain {
 public:
  /// Aggregate used to construct a chain; validated by the constructor.
  struct Spec {
    std::string name;
    ChainKind kind = ChainKind::kSynchronous;
    ArrivalModelPtr arrival;
    std::optional<Time> deadline;  ///< relative end-to-end deadline D
    bool overload = false;         ///< member of C_over
    std::vector<Task> tasks;       ///< header first, tail last
  };

  /// Validates and builds.  Requirements: non-empty name; at least one
  /// task; an arrival model; task names unique and non-empty; WCETs >= 0;
  /// deadline >= 1 when present; overload chains must be synchronous
  /// (the paper treats them as such WLOG).
  explicit Chain(Spec spec);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] ChainKind kind() const { return kind_; }
  [[nodiscard]] bool is_synchronous() const { return kind_ == ChainKind::kSynchronous; }
  [[nodiscard]] bool is_asynchronous() const { return kind_ == ChainKind::kAsynchronous; }
  [[nodiscard]] const ArrivalModel& arrival() const { return *arrival_; }
  [[nodiscard]] const ArrivalModelPtr& arrival_ptr() const { return arrival_; }
  [[nodiscard]] const std::optional<Time>& deadline() const { return deadline_; }
  [[nodiscard]] bool is_overload() const { return overload_; }

  /// Number of tasks n_a.
  [[nodiscard]] int size() const { return static_cast<int>(tasks_.size()); }
  [[nodiscard]] const std::vector<Task>& tasks() const { return tasks_; }
  /// i-th task (0-based; the paper's τ^{i+1}).
  [[nodiscard]] const Task& task(int i) const { return tasks_[static_cast<std::size_t>(i)]; }
  /// First task of the chain (the paper's header task).
  [[nodiscard]] const Task& header() const { return tasks_.front(); }
  /// Last task of the chain (the paper's tail task).
  [[nodiscard]] const Task& tail() const { return tasks_.back(); }

  /// Sum of all task WCETs (the paper's C_σ).
  [[nodiscard]] Time total_wcet() const { return total_wcet_; }
  /// Smallest priority value among the chain's tasks (min_j π^j).
  [[nodiscard]] Priority min_priority() const { return min_priority_; }
  /// Index of the (unique) lowest-priority task.
  [[nodiscard]] int lowest_priority_index() const { return lowest_priority_index_; }

 private:
  std::string name_;
  ChainKind kind_;
  ArrivalModelPtr arrival_;
  std::optional<Time> deadline_;
  bool overload_;
  std::vector<Task> tasks_;
  Time total_wcet_ = 0;
  Priority min_priority_ = 0;
  int lowest_priority_index_ = 0;
};

}  // namespace wharf

#endif  // WHARF_CORE_CHAIN_HPP
