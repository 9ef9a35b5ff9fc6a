#include "core/system.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "util/expect.hpp"

namespace wharf {

namespace {

/// Two tasks holding one priority, as flat task indices: `second` is the
/// first task in flat order whose priority an earlier task holds,
/// `first` the earliest holder of that priority.
struct PriorityClash {
  int first = 0;
  int second = 0;
};

/// The uniqueness check of every task priority: one sorted vector of
/// (priority, flat index) pairs.  Sorting puts each priority's holders
/// in flat order, so the clash a first-come scan would meet first is
/// the group whose second holder comes earliest.
std::optional<PriorityClash> first_priority_clash(const std::vector<Chain>& chains) {
  std::size_t tasks = 0;
  for (const Chain& chain : chains) tasks += chain.tasks().size();
  std::vector<std::pair<Priority, int>> order;
  order.reserve(tasks);
  for (const Chain& chain : chains) {
    for (const Task& t : chain.tasks()) {
      order.emplace_back(t.priority, static_cast<int>(order.size()));
    }
  }
  std::sort(order.begin(), order.end());
  std::optional<PriorityClash> clash;
  for (std::size_t start = 0, end = 0; start < order.size(); start = end) {
    end = start + 1;
    while (end < order.size() && order[end].first == order[start].first) ++end;
    if (end - start > 1 && (!clash || order[start + 1].second < clash->second)) {
      clash = PriorityClash{order[start].second, order[start + 1].second};
    }
  }
  return clash;
}

/// Throws the duplicate-priority error of `clash`: the one throw site of
/// the constructor and with_priorities, so both report the same text.
void expect_unique_priorities(const std::vector<Chain>& chains,
                              const std::optional<PriorityClash>& clash) {
  if (!clash) return;
  const auto task = [&](int flat) -> const Task& {
    std::size_t c = 0;
    for (; flat >= chains[c].size(); ++c) flat -= chains[c].size();
    return chains[c].task(flat);
  };
  WHARF_EXPECT(!clash, "duplicate priority " << task(clash->second).priority << " on tasks '"
                                             << task(clash->first).name << "' and '"
                                             << task(clash->second).name
                                             << "' (the paper assumes a total priority order)");
}

}  // namespace

System::System(std::string name, std::vector<Chain> chains)
    : name_(std::move(name)), chains_(std::move(chains)) {
  WHARF_EXPECT(!name_.empty(), "system name must not be empty");
  WHARF_EXPECT(!chains_.empty(), "system must contain at least one chain");

  // Chains are checked in order, each for its name and then its
  // priorities, so the first offence in that order is the one reported.
  const std::optional<PriorityClash> clash = first_priority_clash(chains_);
  std::unordered_set<std::string> chain_names;
  for (int c = 0; c < size(); ++c) {
    const Chain& chain = chains_[static_cast<std::size_t>(c)];
    WHARF_EXPECT(chain_names.insert(chain.name()).second,
                 "duplicate chain name '" << chain.name() << "'");
    task_count_ += chain.size();
    if (clash && clash->second < task_count_) expect_unique_priorities(chains_, clash);
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
  // Names, WCETs, kinds and deadlines are this system's, already
  // validated: only the new priorities need checking.
  System out = *this;
  const Priority* next = priorities.data();
  for (Chain& chain : out.chains_) {
    chain.set_priorities(next);
    next += chain.size();
  }
  expect_unique_priorities(out.chains_, first_priority_clash(out.chains_));
  return out;
}

System System::with_deadline(int chain, std::optional<Time> deadline) const {
  WHARF_EXPECT(chain >= 0 && chain < size(),
               "chain index " << chain << " out of range [0, " << size() << ")");
  std::vector<Chain> new_chains;
  new_chains.reserve(chains_.size());
  for (int c = 0; c < size(); ++c) {
    Chain::Spec spec = chains_[static_cast<std::size_t>(c)].spec();
    if (c == chain) spec.deadline = deadline;
    new_chains.emplace_back(std::move(spec));
  }
  return System(name_, std::move(new_chains));
}

}  // namespace wharf
