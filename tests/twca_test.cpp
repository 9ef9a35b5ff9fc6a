// Unit tests for TWCA of task chains (Section V / Theorem 3): combination
// enumeration (Def. 9), Omega (Lemma 4), and the DMM pipeline — anchored
// on the paper's Table II and in-text statements.

#include <gtest/gtest.h>

#include "core/case_studies.hpp"
#include "core/twca.hpp"
#include "oracles/packing_reference.hpp"
#include "util/expect.hpp"

namespace wharf {
namespace {

using case_studies::date17_case_study;
using case_studies::figure1_system;
using case_studies::kSigmaC;
using case_studies::kSigmaD;
using case_studies::OverloadModel;

// ---------------------------------------------------------------------------
// Combinations (Def. 9), validated on the paper's in-text examples
// ---------------------------------------------------------------------------

TEST(Combinations, Figure1FourCombinations) {
  // Build the Figure 1 system with sigma_a flagged as the overload chain;
  // the paper counts exactly four possible combinations of its active
  // segments w.r.t. sigma_b.
  const System base = figure1_system();
  Chain::Spec a_spec;
  a_spec.name = "sigma_a";
  a_spec.kind = ChainKind::kSynchronous;
  a_spec.arrival = sporadic(10'000);
  a_spec.overload = true;
  a_spec.tasks = base.chain(0).tasks();
  Chain::Spec b_spec;
  b_spec.name = "sigma_b";
  b_spec.kind = ChainKind::kSynchronous;
  b_spec.arrival = periodic(100);
  b_spec.deadline = 100;
  b_spec.tasks = base.chain(1).tasks();
  const System sys("fig1_overload", {Chain(std::move(a_spec)), Chain(std::move(b_spec))});

  const OverloadStructure structure = overload_structure(sys, 1);
  ASSERT_EQ(structure.per_chain.size(), 1u);
  EXPECT_EQ(structure.total_active(), 3);

  const auto combos = enumerate_combinations(sys, structure, 1'000);
  EXPECT_EQ(combos.size(), 4u);  // {(t1,t2)}, {(t3)}, {(t1,t2),(t3)}, {(t5)}
}

TEST(Combinations, SameSegmentRuleExcludesCrossSegmentPairs) {
  const System base = figure1_system();
  Chain::Spec a_spec;
  a_spec.name = "sigma_a";
  a_spec.kind = ChainKind::kSynchronous;
  a_spec.arrival = sporadic(10'000);
  a_spec.overload = true;
  a_spec.tasks = base.chain(0).tasks();
  Chain::Spec b_spec;
  b_spec.name = "sigma_b";
  b_spec.kind = ChainKind::kSynchronous;
  b_spec.arrival = periodic(100);
  b_spec.deadline = 100;
  b_spec.tasks = base.chain(1).tasks();
  const System sys("fig1_overload", {Chain(std::move(a_spec)), Chain(std::move(b_spec))});
  const OverloadStructure structure = overload_structure(sys, 1);
  const auto combos = enumerate_combinations(sys, structure, 1'000);
  // No combination may contain active segments from different segments of
  // the same chain: (tau5) never appears together with the others.
  for (const Combination& c : combos) {
    if (c.segments.size() < 2) continue;
    const int seg = structure.per_chain[0].active[static_cast<std::size_t>(c.segments[0].active_index)].segment_index;
    for (const ActiveSegmentId& id : c.segments) {
      EXPECT_EQ(structure.per_chain[0].active[static_cast<std::size_t>(id.active_index)].segment_index, seg);
    }
  }
}

TEST(Combinations, CaseStudyThreeCombinations) {
  // Paper: "Our set of combinations thus has three elements."
  const System sys = date17_case_study();
  const OverloadStructure structure = overload_structure(sys, kSigmaC);
  EXPECT_EQ(structure.total_active(), 2);
  const auto combos = enumerate_combinations(sys, structure, 1'000);
  EXPECT_EQ(combos.size(), 3u);
}

TEST(Combinations, CaseStudyOnlyC3Unschedulable) {
  // Paper: "c3 is the only unschedulable combination" (slack 34; costs
  // 20, 30, 50).
  const System sys = date17_case_study();
  const OverloadStructure structure = overload_structure(sys, kSigmaC);
  const auto unsched = reference::all_unschedulable_combinations(sys, structure, 34, 1'000);
  ASSERT_EQ(unsched.size(), 1u);
  EXPECT_EQ(unsched[0].cost, 50);
  EXPECT_EQ(unsched[0].segments.size(), 2u);
}

TEST(Combinations, MinimalFilterKeepsEquivalentOptimum) {
  const System sys = date17_case_study();
  const OverloadStructure structure = overload_structure(sys, kSigmaC);
  const auto all = reference::all_unschedulable_combinations(sys, structure, 34, 1'000);
  const auto minimal = unschedulable_combinations(sys, structure, 34, 1'000);
  EXPECT_EQ(all.size(), minimal.size());  // the only unschedulable combo is minimal
}

TEST(Combinations, FormatCombination) {
  const System sys = date17_case_study();
  const OverloadStructure structure = overload_structure(sys, kSigmaC);
  const auto combos = enumerate_combinations(sys, structure, 1'000);
  bool found_pair = false;
  for (const Combination& c : combos) {
    if (c.segments.size() == 2) {
      const std::string text = format_combination(sys, structure, c);
      EXPECT_NE(text.find("tau1_b"), std::string::npos);
      EXPECT_NE(text.find("tau1_a"), std::string::npos);
      found_pair = true;
    }
  }
  EXPECT_TRUE(found_pair);
}

TEST(Combinations, NegativeSlackRejected) {
  const System sys = date17_case_study();
  const OverloadStructure structure = overload_structure(sys, kSigmaC);
  EXPECT_THROW(unschedulable_combinations(sys, structure, -1, 1'000), InvalidArgument);
}

TEST(Combinations, TargetMustNotBeOverload) {
  const System sys = date17_case_study();
  EXPECT_THROW(overload_structure(sys, case_studies::kSigmaA), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Table II, literal sporadic model
// ---------------------------------------------------------------------------

class TwcaLiteral : public ::testing::Test {
 protected:
  TwcaAnalyzer analyzer{date17_case_study(OverloadModel::kLiteralSporadic)};
};

TEST_F(TwcaLiteral, TableII_DmmC3Is3) {
  const DmmResult r = analyzer.dmm(kSigmaC, 3);
  EXPECT_EQ(r.status, DmmStatus::kBounded);
  EXPECT_EQ(r.dmm, 3);
  EXPECT_EQ(r.n_b, 1);
  EXPECT_EQ(r.slack, 34);
  ASSERT_EQ(r.omegas.size(), 2u);
  EXPECT_EQ(r.omegas[0], 3);  // sigma_b: eta(731)=2, +1
  EXPECT_EQ(r.omegas[1], 3);  // sigma_a: eta(731)=2, +1
  EXPECT_EQ(r.unschedulable_count, 1u);
  EXPECT_EQ(r.packing_optimum, 3);
}

TEST_F(TwcaLiteral, SigmaDAlwaysMeets) {
  const DmmResult r = analyzer.dmm(kSigmaD, 10);
  EXPECT_EQ(r.status, DmmStatus::kAlwaysMeets);
  EXPECT_EQ(r.dmm, 0);
  EXPECT_EQ(r.wcl, 175);
}

TEST_F(TwcaLiteral, LongHorizonsGrowWithSporadicModel) {
  // With the literal sporadic curves the k=76 and k=250 values are much
  // larger than the paper's 4 and 5 (see EXPERIMENTS.md): eta grows
  // linearly in the window.
  EXPECT_EQ(analyzer.dmm(kSigmaC, 76).dmm, 23);
  EXPECT_EQ(analyzer.dmm(kSigmaC, 250).dmm, 73);
}

TEST_F(TwcaLiteral, DmmCappedAtK) {
  const DmmResult r = analyzer.dmm(kSigmaC, 1);
  EXPECT_EQ(r.status, DmmStatus::kBounded);
  EXPECT_LE(r.dmm, 1);
}

TEST_F(TwcaLiteral, DmmMonotoneInK) {
  Count prev = 0;
  for (Count k : {1, 2, 3, 5, 10, 20, 50, 100}) {
    const Count v = analyzer.dmm(kSigmaC, k).dmm;
    EXPECT_GE(v, prev) << "k=" << k;
    prev = v;
  }
}

TEST_F(TwcaLiteral, WeaklyHardCheck) {
  EXPECT_TRUE(analyzer.satisfies_weakly_hard(kSigmaC, 3, 3));
  EXPECT_FALSE(analyzer.satisfies_weakly_hard(kSigmaC, 2, 3));
  EXPECT_TRUE(analyzer.satisfies_weakly_hard(kSigmaD, 0, 10));
}

TEST_F(TwcaLiteral, LatencyAccessorsMatchAnalysis) {
  EXPECT_EQ(analyzer.latency(kSigmaC).wcl, 331);
  EXPECT_EQ(analyzer.latency_without_overload(kSigmaC).wcl, 166);
  EXPECT_TRUE(analyzer.latency_without_overload(kSigmaC).schedulable);
}

TEST_F(TwcaLiteral, RejectsBadQueries) {
  EXPECT_THROW(analyzer.dmm(kSigmaC, 0), InvalidArgument);
  EXPECT_THROW(analyzer.dmm(case_studies::kSigmaA, 3), InvalidArgument);
  EXPECT_THROW(analyzer.dmm(99, 3), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Table II, rare-overload model: exact reproduction including breakpoints
// ---------------------------------------------------------------------------

class TwcaRare : public ::testing::Test {
 protected:
  TwcaAnalyzer analyzer{date17_case_study(OverloadModel::kRareOverload)};
};

TEST_F(TwcaRare, TableII_AllEntries) {
  EXPECT_EQ(analyzer.dmm(kSigmaC, 3).dmm, 3);
  EXPECT_EQ(analyzer.dmm(kSigmaC, 76).dmm, 4);
  EXPECT_EQ(analyzer.dmm(kSigmaC, 250).dmm, 5);
}

TEST_F(TwcaRare, TableII_Breakpoints) {
  // dmm increments exactly at the paper's sample points.
  EXPECT_EQ(analyzer.dmm(kSigmaC, 75).dmm, 3);
  EXPECT_EQ(analyzer.dmm(kSigmaC, 76).dmm, 4);
  EXPECT_EQ(analyzer.dmm(kSigmaC, 249).dmm, 4);
  EXPECT_EQ(analyzer.dmm(kSigmaC, 250).dmm, 5);
}

TEST_F(TwcaRare, TableIUnchangedByOverloadModel) {
  // WCL only depends on short windows where both models agree.
  EXPECT_EQ(analyzer.latency(kSigmaC).wcl, 331);
  EXPECT_EQ(analyzer.latency(kSigmaD).wcl, 175);
}

TEST_F(TwcaRare, DmmCurveMatchesPointQueries) {
  const std::vector<Count> ks = {1, 3, 75, 76, 249, 250};
  const auto curve = analyzer.dmm_curve(kSigmaC, ks);
  ASSERT_EQ(curve.size(), ks.size());
  for (std::size_t i = 0; i < ks.size(); ++i) {
    EXPECT_EQ(curve[i].k, ks[i]);
    EXPECT_EQ(curve[i].dmm, analyzer.dmm(kSigmaC, ks[i]).dmm);
  }
}

// ---------------------------------------------------------------------------
// Pipeline edge cases
// ---------------------------------------------------------------------------

TEST(Twca, NoOverloadChainsMeansNoGuaranteeWhenMissing) {
  // sigma_c alone with sigma_d (no overload chains): WCL = 166 <= 200 so
  // it always meets; but if we shrink the deadline it misses with no
  // overload to blame -> kNoGuarantee.
  System sys = date17_case_study();
  std::vector<Chain> chains;
  for (int i : sys.regular_indices()) {
    const Chain& c = sys.chain(i);
    Chain::Spec s;
    s.name = c.name();
    s.kind = c.kind();
    s.arrival = c.arrival_ptr();
    s.deadline = c.name() == "sigma_c" ? std::optional<Time>(100) : c.deadline();
    s.tasks = c.tasks();
    chains.push_back(Chain(std::move(s)));
  }
  const System reduced("no_overload", std::move(chains));
  TwcaAnalyzer analyzer{reduced};
  const DmmResult r = analyzer.dmm(1, 5);  // sigma_c, D=100 < WCL=166
  EXPECT_EQ(r.status, DmmStatus::kNoGuarantee);
  EXPECT_EQ(r.dmm, 5);
  EXPECT_FALSE(r.reason.empty());
}

TEST(Twca, AlwaysMeetsWithoutOverloadChains) {
  System sys = date17_case_study();
  std::vector<Chain> chains;
  for (int i : sys.regular_indices()) chains.push_back(sys.chain(i));
  const System reduced("no_overload", std::move(chains));
  TwcaAnalyzer analyzer{reduced};
  EXPECT_EQ(analyzer.dmm(1, 5).status, DmmStatus::kAlwaysMeets);
  EXPECT_EQ(analyzer.dmm(1, 5).dmm, 0);
}

TEST(Twca, NegativeSlackYieldsNoGuarantee) {
  // Make sigma_c's deadline so small that it misses even without
  // overload: D=150 < 166.
  System sys = date17_case_study();
  std::vector<Chain> chains;
  for (int i = 0; i < sys.size(); ++i) {
    const Chain& c = sys.chain(i);
    Chain::Spec s;
    s.name = c.name();
    s.kind = c.kind();
    s.arrival = c.arrival_ptr();
    s.overload = c.is_overload();
    s.deadline = c.name() == "sigma_c" ? std::optional<Time>(150) : c.deadline();
    s.tasks = c.tasks();
    chains.push_back(Chain(std::move(s)));
  }
  const System tight("tight", std::move(chains));
  TwcaAnalyzer analyzer{tight};
  const DmmResult r = analyzer.dmm(1, 10);
  EXPECT_EQ(r.status, DmmStatus::kNoGuarantee);
  EXPECT_EQ(r.dmm, 10);
  EXPECT_NE(r.reason.find("slack"), std::string::npos);
}

TEST(Twca, ExactCriterionMatchesEq5OnCaseStudy) {
  TwcaOptions exact;
  exact.criterion = SchedulabilityCriterion::kExactEq3;
  TwcaAnalyzer eq5{date17_case_study(OverloadModel::kRareOverload)};
  TwcaAnalyzer eq3{date17_case_study(OverloadModel::kRareOverload), exact};
  for (Count k : {3, 76, 250}) {
    const DmmResult a = eq5.dmm(kSigmaC, k);
    const DmmResult b = eq3.dmm(kSigmaC, k);
    EXPECT_EQ(a.dmm, b.dmm) << "k=" << k;
    EXPECT_EQ(a.slack, b.slack);  // both 34: Eq. 5 is tight here
  }
}

TEST(Twca, ExactCriterionNeverPessimizes) {
  // By construction the exact slack dominates the Eq.-5 slack, so the
  // exact dmm can only be smaller or equal.
  TwcaOptions exact;
  exact.criterion = SchedulabilityCriterion::kExactEq3;
  TwcaAnalyzer eq5{date17_case_study(OverloadModel::kLiteralSporadic)};
  TwcaAnalyzer eq3{date17_case_study(OverloadModel::kLiteralSporadic), exact};
  for (Count k : {1, 5, 20, 100}) {
    const DmmResult a = eq5.dmm(kSigmaC, k);
    const DmmResult b = eq3.dmm(kSigmaC, k);
    EXPECT_GE(b.slack, a.slack) << "k=" << k;
    EXPECT_LE(b.dmm, a.dmm) << "k=" << k;
  }
}

TEST(Twca, DfsPackerMatchesIlpPacker) {
  const System sys = date17_case_study(OverloadModel::kRareOverload);
  TwcaAnalyzer ilp_analyzer{sys};
  for (Count k : {1, 3, 76, 250}) {
    EXPECT_EQ(ilp_analyzer.dmm(kSigmaC, k).dmm,
              reference::dmm(sys, kSigmaC, k, {}, {.dfs_packer = true}).dmm)
        << "k=" << k;
  }
}

TEST(Twca, SporadicTargetHasUnboundedDeltaPlus) {
  // If the analyzed chain itself is sporadic, delta_plus(k) is unbounded
  // and Lemma 4 cannot bound Omega -> no guarantee.
  Chain::Spec target;
  target.name = "t";
  target.arrival = sporadic(200);
  target.deadline = 60;
  target.tasks = {Task{"t1", 2, 50}};
  Chain::Spec over;
  over.name = "o";
  over.arrival = sporadic(10'000);
  over.overload = true;
  over.tasks = {Task{"o1", 3, 20}};
  Chain::Spec filler;
  filler.name = "f";
  filler.arrival = periodic(1'000);
  filler.deadline = 1'000;
  filler.tasks = {Task{"f1", 1, 1}};
  const System sys("sporadic_target",
                   {Chain(std::move(target)), Chain(std::move(over)), Chain(std::move(filler))});
  TwcaAnalyzer analyzer{sys};
  const DmmResult r = analyzer.dmm(0, 4);
  EXPECT_EQ(r.status, DmmStatus::kNoGuarantee);
  EXPECT_EQ(r.dmm, 4);
  EXPECT_NE(r.reason.find("delta_plus"), std::string::npos);
}

TEST(Twca, AsynchronousTargetEndToEnd) {
  // Hand-computed asynchronous example exercising the self-interference
  // terms of Eq. (1) and Eq. (4).  Chain t (async, period 25, D 42):
  // header h (prio 5, C 10), tail (prio 1, C 10); overload o: single task
  // (prio 6, C 15), sporadic(10000).
  //   B(1) = 20 + 1*10 + 15 = 45;  B(2) = 65;  B(3) = 75 = delta(4) -> K=3.
  //   WCL = 45 (q=1); N_b = 1 (only 45 > 42);
  //   L(1) = 30 -> slack 12 < 15 = cost(o) -> U = {{o}}.
  //   Omega(5) = eta_o(100 + 45) + 1 = 2 -> dmm(5) = 2.
  Chain::Spec t;
  t.name = "t";
  t.kind = ChainKind::kAsynchronous;
  t.arrival = periodic(25);
  t.deadline = 42;
  t.tasks = {Task{"h", 5, 10}, Task{"tail", 1, 10}};
  Chain::Spec o;
  o.name = "o";
  o.arrival = sporadic(10'000);
  o.overload = true;
  o.tasks = {Task{"o1", 6, 15}};
  const System sys("async_target", {Chain(std::move(t)), Chain(std::move(o))});

  TwcaAnalyzer analyzer{sys};
  const LatencyResult& lat = analyzer.latency(0);
  ASSERT_TRUE(lat.bounded);
  EXPECT_EQ(lat.K, 3);
  ASSERT_EQ(lat.busy_times.size(), 3u);
  EXPECT_EQ(lat.busy_times[0], 45);
  EXPECT_EQ(lat.busy_times[1], 65);
  EXPECT_EQ(lat.busy_times[2], 75);
  EXPECT_EQ(lat.wcl, 45);
  ASSERT_TRUE(lat.misses_per_window.has_value());
  EXPECT_EQ(*lat.misses_per_window, 1);

  const DmmResult r = analyzer.dmm(0, 5);
  EXPECT_EQ(r.status, DmmStatus::kBounded);
  EXPECT_EQ(r.slack, 12);
  EXPECT_EQ(r.unschedulable_count, 1u);
  EXPECT_EQ(r.dmm, 2);
  EXPECT_EQ(analyzer.dmm(0, 1).dmm, 1);  // capped at k
}

TEST(Twca, StatusToString) {
  EXPECT_EQ(to_string(DmmStatus::kAlwaysMeets), "always-meets");
  EXPECT_EQ(to_string(DmmStatus::kBounded), "bounded");
  EXPECT_EQ(to_string(DmmStatus::kNoGuarantee), "no-guarantee");
}

}  // namespace
}  // namespace wharf
