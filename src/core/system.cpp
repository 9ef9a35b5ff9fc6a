#include "core/system.hpp"

#include <unordered_map>
#include <unordered_set>

#include "util/expect.hpp"
#include "util/strings.hpp"

namespace wharf {

System::System(std::string name, std::vector<Chain> chains)
    : name_(std::move(name)), chains_(std::move(chains)) {
  WHARF_EXPECT(!name_.empty(), "system name must not be empty");
  WHARF_EXPECT(!chains_.empty(), "system must contain at least one chain");

  std::unordered_set<std::string> chain_names;
  std::unordered_map<Priority, std::string> priority_owner;
  for (int c = 0; c < size(); ++c) {
    const Chain& chain = chains_[static_cast<std::size_t>(c)];
    WHARF_EXPECT(chain_names.insert(chain.name()).second,
                 "duplicate chain name '" << chain.name() << "'");
    for (const Task& t : chain.tasks()) {
      auto [it, inserted] = priority_owner.emplace(t.priority, t.name);
      WHARF_EXPECT(inserted, "duplicate priority " << t.priority << " on tasks '" << it->second
                                                   << "' and '" << t.name
                                                   << "' (the paper assumes a total priority "
                                                      "order)");
    }
    task_count_ += chain.size();
    (chain.is_overload() ? overload_indices_ : regular_indices_).push_back(c);
  }
}

std::optional<int> System::chain_index(const std::string& chain_name) const {
  for (int c = 0; c < size(); ++c) {
    if (chain(c).name() == chain_name) return c;
  }
  return std::nullopt;
}

double System::utilization() const {
  double u = 0.0;
  for (const Chain& c : chains_) {
    u += static_cast<double>(c.total_wcet()) * c.arrival().rate_upper();
  }
  return u;
}

std::vector<Priority> System::flat_priorities() const {
  std::vector<Priority> out;
  out.reserve(static_cast<std::size_t>(task_count_));
  for (const Chain& c : chains_) {
    for (const Task& t : c.tasks()) out.push_back(t.priority);
  }
  return out;
}

System System::with_priorities(const std::vector<Priority>& priorities) const {
  WHARF_EXPECT(priorities.size() == static_cast<std::size_t>(task_count_),
               "expected " << task_count_ << " priorities, got " << priorities.size());
  std::vector<Chain> new_chains;
  new_chains.reserve(chains_.size());
  std::size_t next = 0;
  for (const Chain& c : chains_) {
    Chain::Spec spec;
    spec.name = c.name();
    spec.kind = c.kind();
    spec.arrival = c.arrival_ptr();
    spec.deadline = c.deadline();
    spec.overload = c.is_overload();
    spec.tasks = c.tasks();
    for (Task& t : spec.tasks) t.priority = priorities[next++];
    new_chains.emplace_back(std::move(spec));
  }
  return System(name_, std::move(new_chains));
}

System System::with_deadline(int chain, std::optional<Time> deadline) const {
  WHARF_EXPECT(chain >= 0 && chain < size(),
               "chain index " << chain << " out of range [0, " << size() << ")");
  std::vector<Chain> new_chains;
  new_chains.reserve(chains_.size());
  for (int c = 0; c < size(); ++c) {
    const Chain& current = chains_[static_cast<std::size_t>(c)];
    Chain::Spec spec;
    spec.name = current.name();
    spec.kind = current.kind();
    spec.arrival = current.arrival_ptr();
    spec.deadline = c == chain ? deadline : current.deadline();
    spec.overload = current.is_overload();
    spec.tasks = current.tasks();
    new_chains.emplace_back(std::move(spec));
  }
  return System(name_, std::move(new_chains));
}

std::optional<TaskRef> System::find_task(const std::string& dotted) const {
  const auto dot = dotted.find('.');
  if (dot == std::string::npos) return std::nullopt;
  const std::string chain_part = dotted.substr(0, dot);
  const std::string task_part = dotted.substr(dot + 1);
  const auto c = chain_index(chain_part);
  if (!c.has_value()) return std::nullopt;
  const Chain& ch = chain(*c);
  for (int t = 0; t < ch.size(); ++t) {
    if (ch.task(t).name == task_part) return TaskRef{*c, t};
  }
  return std::nullopt;
}

}  // namespace wharf
