// Unit tests for priority-assignment synthesis (src/search).

#include <gtest/gtest.h>

#include "core/case_studies.hpp"
#include "search/priority_search.hpp"
#include "util/expect.hpp"

namespace wharf::search {
namespace {

using case_studies::date17_case_study;
using case_studies::OverloadModel;

/// A small system (5 tasks) where exhaustive search is feasible: one
/// two-task chain, one single-task chain, one two-task overload chain.
System small_system() {
  Chain::Spec x;
  x.name = "x";
  x.arrival = periodic(100);
  x.deadline = 60;
  x.tasks = {Task{"x1", 1, 10}, Task{"x2", 2, 15}};
  Chain::Spec y;
  y.name = "y";
  y.arrival = periodic(200);
  y.deadline = 120;
  y.tasks = {Task{"y1", 3, 30}};
  Chain::Spec o;
  o.name = "o";
  o.arrival = sporadic(5'000);
  o.overload = true;
  o.tasks = {Task{"o1", 4, 8}, Task{"o2", 5, 9}};
  return System("small", {Chain(std::move(x)), Chain(std::move(y)), Chain(std::move(o))});
}

TEST(Objective, LexicographicOrder) {
  EXPECT_LT((Objective{0, 5, 100}), (Objective{1, 0, 0}));
  EXPECT_LT((Objective{1, 2, 100}), (Objective{1, 3, 0}));
  EXPECT_LT((Objective{1, 2, 50}), (Objective{1, 2, 60}));
  EXPECT_EQ((Objective{1, 2, 3}), (Objective{1, 2, 3}));
}

TEST(Evaluate, CaseStudyNominal) {
  const System sys = date17_case_study(OverloadModel::kRareOverload);
  PipelineEvaluator evaluator(sys, EvaluationSpec{10, {}});
  const Objective obj = evaluator.evaluate(sys.flat_priorities());
  // sigma_c misses (dmm 3), sigma_d does not; WCL sum 331 + 175.
  EXPECT_EQ(obj.chains_missing, 1);
  EXPECT_EQ(obj.total_dmm, 3);
  EXPECT_EQ(obj.total_wcl, 331 + 175);
}

TEST(Evaluate, ExplicitTargets) {
  const System sys = date17_case_study(OverloadModel::kRareOverload);
  PipelineEvaluator evaluator(sys, EvaluationSpec{10, {case_studies::kSigmaD}});
  const Objective only_d = evaluator.evaluate(sys.flat_priorities());
  EXPECT_EQ(only_d.chains_missing, 0);
  EXPECT_EQ(only_d.total_wcl, 175);
}

TEST(Evaluate, Validation) {
  const System sys = date17_case_study();
  EXPECT_THROW((void)PipelineEvaluator(sys, EvaluationSpec{0, {}}).evaluate(sys.flat_priorities()),
               InvalidArgument);
}

TEST(Evaluate, EmptyTargetsDefaultEqualsExplicitEligibleList) {
  // The empty-targets default means "all non-overload chains with a
  // deadline" — spelling that list out must be equivalent.
  const System sys = date17_case_study(OverloadModel::kRareOverload);
  std::vector<int> eligible;
  for (int c : sys.regular_indices()) {
    if (sys.chain(c).deadline().has_value()) eligible.push_back(c);
  }
  ASSERT_FALSE(eligible.empty());
  PipelineEvaluator by_default(sys, EvaluationSpec{10, {}});
  PipelineEvaluator explicit_list(sys, EvaluationSpec{10, eligible});
  EXPECT_EQ(by_default.evaluate(sys.flat_priorities()),
            explicit_list.evaluate(sys.flat_priorities()));
}

/// A system where the default target set is empty: one regular chain
/// without a deadline plus one overload chain.
System no_eligible_chain_system() {
  Chain::Spec r;
  r.name = "r";
  r.arrival = periodic(100);
  r.tasks = {Task{"r1", 1, 5}};
  Chain::Spec o;
  o.name = "o";
  o.arrival = sporadic(1'000);
  o.overload = true;
  o.tasks = {Task{"o1", 2, 3}};
  return System("no_eligible", {Chain(std::move(r)), Chain(std::move(o))});
}

TEST(Evaluate, ZeroEligibleChainsIsInvalidArgumentEverywhere) {
  const System sys = no_eligible_chain_system();
  const EvaluationSpec spec{10, {}};
  EXPECT_THROW((void)PipelineEvaluator(sys, spec).evaluate(sys.flat_priorities()),
               InvalidArgument);
  EXPECT_THROW(
      {
        PipelineEvaluator evaluator(sys, spec);
        (void)random_search(evaluator, 5, 1);
      },
      InvalidArgument);
  EXPECT_THROW(
      {
        PipelineEvaluator evaluator(sys, spec);
        (void)hill_climb(evaluator);
      },
      InvalidArgument);
  EXPECT_THROW(
      {
        PipelineEvaluator evaluator(sys, spec);
        (void)exhaustive_search(evaluator);
      },
      InvalidArgument);
}

TEST(ExhaustiveSearch, FindsOptimumOnSmallSystem) {
  const System sys = small_system();
  PipelineEvaluator evaluator(sys, EvaluationSpec{5, {}});
  const SearchResult result = exhaustive_search(evaluator);
  EXPECT_EQ(result.evaluations, 120);  // 5! permutations
  // The optimum must be at least as good as the nominal assignment and
  // as good as any sampled assignment.
  const Objective nominal = evaluator.evaluate(sys.flat_priorities());
  EXPECT_LE(result.best_objective, nominal);
  const SearchResult sampled = random_search(evaluator, 50, 3);
  EXPECT_LE(result.best_objective, sampled.best_objective);
}

TEST(ExhaustiveSearch, GuardsAgainstFactorialBlowup) {
  const System sys = date17_case_study();  // 13 tasks -> 13! permutations
  PipelineEvaluator evaluator(sys, EvaluationSpec{5, {}});
  EXPECT_THROW(exhaustive_search(evaluator, 10'000), InvalidArgument);
}

TEST(ExhaustiveSearch, MaxPermutationsGuardIsInclusive) {
  // 5 tasks -> exactly 120 permutations: a budget of 120 must pass, 119
  // must throw before any evaluation happens.
  const System sys = small_system();
  PipelineEvaluator evaluator(sys, EvaluationSpec{5, {}});
  const SearchResult exact = exhaustive_search(evaluator, 120);
  EXPECT_EQ(exact.evaluations, 120);
  EXPECT_THROW(exhaustive_search(evaluator, 119), InvalidArgument);
}

TEST(RandomSearch, DeterministicUnderSeed) {
  const System sys = small_system();
  PipelineEvaluator first(sys, EvaluationSpec{5, {}});
  PipelineEvaluator second(sys, EvaluationSpec{5, {}});
  const SearchResult a = random_search(first, 30, 42);
  const SearchResult b = random_search(second, 30, 42);
  EXPECT_EQ(a.best_priorities, b.best_priorities);
  EXPECT_EQ(a.best_objective, b.best_objective);
  EXPECT_EQ(a.evaluations, 30);
}

TEST(RandomSearch, BestIsAtLeastAsGoodAsAnySample) {
  const System sys = small_system();
  PipelineEvaluator evaluator(sys, EvaluationSpec{5, {}});
  const SearchResult r = random_search(evaluator, 40, 9);
  const System best = sys.with_priorities(r.best_priorities);
  PipelineEvaluator rescore(best, EvaluationSpec{5, {}});
  EXPECT_EQ(rescore.evaluate(best.flat_priorities()), r.best_objective);
}

TEST(HillClimb, ReachesExhaustiveOptimumOnSmallSystem) {
  const System sys = small_system();
  PipelineEvaluator evaluator(sys, EvaluationSpec{5, {}});
  const SearchResult exact = exhaustive_search(evaluator);
  HillClimbOptions options;
  options.restarts = 4;
  options.seed = 11;
  const SearchResult climbed = hill_climb(evaluator, options);
  EXPECT_EQ(climbed.best_objective, exact.best_objective);
}

TEST(HillClimb, ImprovesOnCaseStudy) {
  // The nominal case-study assignment has dmm_c(10)=3; local search finds
  // assignments where both chains always meet their deadlines.
  const System sys = date17_case_study(OverloadModel::kRareOverload);
  HillClimbOptions options;
  options.restarts = 2;
  options.max_steps = 30;
  options.seed = 5;
  PipelineEvaluator evaluator(sys, EvaluationSpec{10, {}});
  const SearchResult result = hill_climb(evaluator, options);
  const Objective nominal = evaluator.evaluate(sys.flat_priorities());
  EXPECT_LT(result.best_objective, nominal);
  EXPECT_EQ(result.best_objective.chains_missing, 0);
}

TEST(HillClimb, ResultPrioritiesAreAValidPermutation) {
  const System sys = small_system();
  PipelineEvaluator evaluator(sys, EvaluationSpec{5, {}});
  const SearchResult r = hill_climb(evaluator);
  ASSERT_EQ(r.best_priorities.size(), 5u);
  // Applying them must produce a valid system (unique priorities 1..5).
  EXPECT_NO_THROW(sys.with_priorities(r.best_priorities));
}

TEST(HillClimb, Validation) {
  const System sys = small_system();
  HillClimbOptions bad;
  bad.restarts = 0;
  PipelineEvaluator evaluator(sys, EvaluationSpec{5, {}});
  EXPECT_THROW(hill_climb(evaluator, bad), InvalidArgument);
}

}  // namespace
}  // namespace wharf::search
