// Unit tests for Task/Chain/System construction and validation
// (src/core/{task,chain,system}).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/case_studies.hpp"
#include "core/chain.hpp"
#include "core/system.hpp"
#include "util/expect.hpp"

namespace wharf {
namespace {

Chain::Spec basic_chain(const std::string& name, std::vector<Task> tasks) {
  Chain::Spec spec;
  spec.name = name;
  spec.kind = ChainKind::kSynchronous;
  spec.arrival = periodic(100);
  spec.deadline = 100;
  spec.tasks = std::move(tasks);
  return spec;
}

TEST(Chain, BasicAccessors) {
  const Chain c(basic_chain("sigma", {Task{"t1", 5, 10}, Task{"t2", 3, 20}, Task{"t3", 7, 30}}));
  EXPECT_EQ(c.name(), "sigma");
  EXPECT_EQ(c.size(), 3);
  EXPECT_EQ(c.total_wcet(), 60);
  EXPECT_EQ(c.min_priority(), 3);
  EXPECT_EQ(c.lowest_priority_index(), 1);
  EXPECT_EQ(c.header().name, "t1");
  EXPECT_EQ(c.tail().name, "t3");
  EXPECT_TRUE(c.is_synchronous());
  EXPECT_FALSE(c.is_overload());
}

TEST(Chain, RejectsEmptyTaskList) {
  EXPECT_THROW(Chain(basic_chain("sigma", {})), InvalidArgument);
}

TEST(Chain, RejectsMissingArrival) {
  Chain::Spec spec = basic_chain("sigma", {Task{"t1", 1, 1}});
  spec.arrival = nullptr;
  EXPECT_THROW(Chain(std::move(spec)), InvalidArgument);
}

TEST(Chain, RejectsDuplicateTaskNames) {
  EXPECT_THROW(Chain(basic_chain("sigma", {Task{"t", 1, 1}, Task{"t", 2, 1}})), InvalidArgument);
}

TEST(Chain, RejectsNegativeWcet) {
  EXPECT_THROW(Chain(basic_chain("sigma", {Task{"t", 1, -1}})), InvalidArgument);
}

TEST(Chain, AllowsZeroWcet) {
  EXPECT_NO_THROW(Chain(basic_chain("sigma", {Task{"t", 1, 0}})));
}

TEST(Chain, RejectsNonPositiveDeadline) {
  Chain::Spec spec = basic_chain("sigma", {Task{"t", 1, 1}});
  spec.deadline = 0;
  EXPECT_THROW(Chain(std::move(spec)), InvalidArgument);
}

TEST(Chain, RejectsAsynchronousOverload) {
  Chain::Spec spec = basic_chain("sigma", {Task{"t", 1, 1}});
  spec.overload = true;
  spec.kind = ChainKind::kAsynchronous;
  EXPECT_THROW(Chain(std::move(spec)), InvalidArgument);
}

TEST(Chain, AllowsSynchronousOverloadWithoutDeadline) {
  Chain::Spec spec = basic_chain("sigma", {Task{"t", 1, 1}});
  spec.overload = true;
  spec.deadline.reset();
  const Chain c(std::move(spec));
  EXPECT_TRUE(c.is_overload());
  EXPECT_FALSE(c.deadline().has_value());
}

TEST(Chain, SpecRoundTripsEveryField) {
  Chain::Spec spec = basic_chain("sigma", {Task{"t1", 5, 10}, Task{"t2", 3, 20}});
  spec.kind = ChainKind::kAsynchronous;
  const Chain c(spec);
  const Chain::Spec back = c.spec();
  EXPECT_EQ(back.name, "sigma");
  EXPECT_EQ(back.kind, ChainKind::kAsynchronous);
  EXPECT_EQ(back.arrival, c.arrival_ptr());  // shared, not copied
  EXPECT_EQ(back.deadline, std::optional<Time>(100));
  EXPECT_FALSE(back.overload);
  ASSERT_EQ(back.tasks.size(), 2u);
  EXPECT_EQ(back.tasks[1].name, "t2");
  EXPECT_EQ(back.tasks[1].priority, 3);
  EXPECT_EQ(back.tasks[1].wcet, 20);

  Chain::Spec overload = basic_chain("over", {Task{"t", 1, 1}});
  overload.overload = true;
  overload.deadline.reset();
  const Chain::Spec over_back = Chain(overload).spec();
  EXPECT_TRUE(over_back.overload);
  EXPECT_FALSE(over_back.deadline.has_value());
}

TEST(ChainKind, ToString) {
  EXPECT_EQ(to_string(ChainKind::kSynchronous), "synchronous");
  EXPECT_EQ(to_string(ChainKind::kAsynchronous), "asynchronous");
}

TEST(System, CaseStudyShape) {
  const System s = case_studies::date17_case_study();
  EXPECT_EQ(s.name(), "date17_case_study");
  EXPECT_EQ(s.size(), 4);
  EXPECT_EQ(s.task_count(), 13);
  EXPECT_EQ(s.chain(case_studies::kSigmaD).name(), "sigma_d");
  EXPECT_EQ(s.chain(case_studies::kSigmaC).name(), "sigma_c");
  EXPECT_EQ(s.chain(case_studies::kSigmaB).name(), "sigma_b");
  EXPECT_EQ(s.chain(case_studies::kSigmaA).name(), "sigma_a");
  EXPECT_EQ(s.overload_indices(), (std::vector<int>{2, 3}));
  EXPECT_EQ(s.regular_indices(), (std::vector<int>{0, 1}));
}

TEST(System, CaseStudyChainData) {
  const System s = case_studies::date17_case_study();
  const Chain& d = s.chain(case_studies::kSigmaD);
  EXPECT_EQ(d.total_wcet(), 115);
  EXPECT_EQ(d.min_priority(), 2);
  EXPECT_EQ(*d.deadline(), 200);
  const Chain& c = s.chain(case_studies::kSigmaC);
  EXPECT_EQ(c.total_wcet(), 51);
  EXPECT_EQ(c.min_priority(), 1);
  const Chain& b = s.chain(case_studies::kSigmaB);
  EXPECT_EQ(b.total_wcet(), 30);
  EXPECT_TRUE(b.is_overload());
  const Chain& a = s.chain(case_studies::kSigmaA);
  EXPECT_EQ(a.total_wcet(), 20);
  EXPECT_TRUE(a.is_overload());
}

TEST(System, CaseStudyUtilization) {
  const System s = case_studies::date17_case_study();
  // 115/200 + 51/200 + 30/600 + 20/700 = 0.575 + 0.255 + 0.05 + 0.02857...
  EXPECT_NEAR(s.utilization(), 0.90857, 1e-4);
  EXPECT_LT(s.utilization(), 1.0);
}

TEST(System, RejectsDuplicatePriorities) {
  std::vector<Chain> chains;
  chains.emplace_back(basic_chain("x", {Task{"t1", 5, 1}}));
  chains.emplace_back(basic_chain("y", {Task{"t2", 5, 1}}));
  EXPECT_THROW(System("bad", std::move(chains)), InvalidArgument);
}

TEST(System, RejectsDuplicateChainNames) {
  std::vector<Chain> chains;
  chains.emplace_back(basic_chain("x", {Task{"t1", 1, 1}}));
  chains.emplace_back(basic_chain("x", {Task{"t2", 2, 1}}));
  EXPECT_THROW(System("bad", std::move(chains)), InvalidArgument);
}

TEST(System, ReportsTheFirstOffenceInChainOrder) {
  // Each chain is checked for its name, then its priorities: whichever
  // offence an in-order scan meets first is the one reported.
  const auto error_of = [](std::vector<Chain> chains) -> std::string {
    try {
      (void)System("bad", std::move(chains));
    } catch (const InvalidArgument& e) {
      return e.what();
    }
    return "";
  };
  std::vector<Chain> priority_first;
  priority_first.emplace_back(basic_chain("x", {Task{"t1", 5, 1}}));
  priority_first.emplace_back(basic_chain("y", {Task{"t2", 5, 1}}));
  priority_first.emplace_back(basic_chain("x", {Task{"t3", 6, 1}}));
  EXPECT_EQ(error_of(std::move(priority_first)).rfind(
                "duplicate priority 5 on tasks 't1' and 't2' (the paper assumes a total "
                "priority order) [",
                0),
            0u);
  std::vector<Chain> name_first;
  name_first.emplace_back(basic_chain("x", {Task{"t1", 5, 1}}));
  name_first.emplace_back(basic_chain("x", {Task{"t2", 6, 1}}));
  name_first.emplace_back(basic_chain("y", {Task{"t3", 5, 1}, Task{"t4", 6, 1}}));
  EXPECT_EQ(error_of(std::move(name_first)).rfind("duplicate chain name 'x' [", 0), 0u);
}

TEST(System, RejectsEmpty) {
  EXPECT_THROW(System("empty", {}), InvalidArgument);
}

TEST(System, ChainIndexLookup) {
  const System s = case_studies::date17_case_study();
  EXPECT_EQ(s.chain_index("sigma_c"), std::optional<int>(1));
  EXPECT_EQ(s.chain_index("nonexistent"), std::nullopt);
}

TEST(System, FlatPrioritiesOrder) {
  const System s = case_studies::date17_case_study();
  const std::vector<Priority> p = s.flat_priorities();
  ASSERT_EQ(p.size(), 13u);
  // sigma_d tasks first.
  EXPECT_EQ(p[0], 11);
  EXPECT_EQ(p[4], 2);
  // sigma_c next.
  EXPECT_EQ(p[5], 8);
  EXPECT_EQ(p[7], 1);
  // sigma_b, sigma_a last.
  EXPECT_EQ(p[8], 13);
  EXPECT_EQ(p[11], 4);
  EXPECT_EQ(p[12], 3);
}

TEST(System, WithPrioritiesRoundTrip) {
  const System s = case_studies::date17_case_study();
  const System t = s.with_priorities(s.flat_priorities());
  EXPECT_EQ(t.flat_priorities(), s.flat_priorities());
  EXPECT_EQ(t.size(), s.size());
  EXPECT_EQ(t.chain(1).name(), "sigma_c");
}

TEST(System, WithPrioritiesReassigns) {
  const System s = case_studies::date17_case_study();
  std::vector<Priority> p = s.flat_priorities();
  std::reverse(p.begin(), p.end());
  const System t = s.with_priorities(p);
  EXPECT_EQ(t.flat_priorities(), p);
  // Structure must be preserved.
  EXPECT_EQ(t.chain(0).total_wcet(), s.chain(0).total_wcet());
  EXPECT_EQ(t.chain(2).is_overload(), true);
}

TEST(System, WithPrioritiesRejectsSizeMismatch) {
  const System s = case_studies::date17_case_study();
  EXPECT_THROW(s.with_priorities({1, 2, 3}), InvalidArgument);
}

TEST(System, WithPrioritiesRejectsDuplicates) {
  const System s = case_studies::date17_case_study();
  std::vector<Priority> p = s.flat_priorities();
  p[0] = p[1];
  EXPECT_THROW(s.with_priorities(p), InvalidArgument);
}

TEST(System, WithPrioritiesRejectsEmptyVector) {
  const System s = case_studies::date17_case_study();
  EXPECT_THROW(s.with_priorities({}), InvalidArgument);
}

TEST(System, WithPrioritiesPreservesModelStructure) {
  const System s = case_studies::date17_case_study();
  std::vector<Priority> p = s.flat_priorities();
  std::reverse(p.begin(), p.end());
  const System t = s.with_priorities(p);
  EXPECT_EQ(t.name(), s.name());
  EXPECT_EQ(t.size(), s.size());
  for (int c = 0; c < s.size(); ++c) {
    EXPECT_EQ(t.chain(c).name(), s.chain(c).name());
    EXPECT_EQ(t.chain(c).deadline(), s.chain(c).deadline());
    EXPECT_EQ(t.chain(c).is_overload(), s.chain(c).is_overload());
    EXPECT_EQ(t.chain(c).arrival().describe(), s.chain(c).arrival().describe());
  }
  EXPECT_EQ(t.overload_indices(), s.overload_indices());
}

TEST(System, Figure1Shape) {
  const System s = case_studies::figure1_system();
  EXPECT_EQ(s.size(), 2);
  EXPECT_EQ(s.chain(case_studies::kFig1SigmaA).size(), 6);
  EXPECT_EQ(s.chain(case_studies::kFig1SigmaB).size(), 3);
  EXPECT_EQ(s.chain(0).min_priority(), 1);
  EXPECT_EQ(s.chain(1).min_priority(), 3);
}

}  // namespace
}  // namespace wharf
