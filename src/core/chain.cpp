#include "core/chain.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/expect.hpp"

namespace wharf {

std::string to_string(ChainKind kind) {
  return kind == ChainKind::kSynchronous ? "synchronous" : "asynchronous";
}

Chain::Chain(Spec spec)
    : name_(std::move(spec.name)),
      kind_(spec.kind),
      arrival_(std::move(spec.arrival)),
      deadline_(spec.deadline),
      overload_(spec.overload),
      tasks_(std::move(spec.tasks)) {
  WHARF_EXPECT(!name_.empty(), "chain name must not be empty");
  WHARF_EXPECT(arrival_ != nullptr, "chain '" << name_ << "' needs an arrival model");
  WHARF_EXPECT(!tasks_.empty(), "chain '" << name_ << "' must contain at least one task");
  if (deadline_.has_value()) {
    WHARF_EXPECT(*deadline_ >= 1,
                 "chain '" << name_ << "' deadline must be >= 1, got " << *deadline_);
  }
  WHARF_EXPECT(!overload_ || kind_ == ChainKind::kSynchronous,
               "overload chain '" << name_
                                  << "' must be synchronous (the paper treats overload chains "
                                     "as synchronous WLOG)");

  std::unordered_set<std::string> names;
  for (const Task& t : tasks_) {
    WHARF_EXPECT(!t.name.empty(), "task of chain '" << name_ << "' has an empty name");
    WHARF_EXPECT(names.insert(t.name).second,
                 "duplicate task name '" << t.name << "' in chain '" << name_ << "'");
    WHARF_EXPECT(t.wcet >= 0, "task '" << t.name << "' has negative WCET " << t.wcet);
    total_wcet_ = sat_add(total_wcet_, t.wcet);
  }

  lowest_priority_index_ = 0;
  for (int i = 1; i < size(); ++i) {
    if (task(i).priority < task(lowest_priority_index_).priority) lowest_priority_index_ = i;
  }
  min_priority_ = task(lowest_priority_index_).priority;
}

}  // namespace wharf
