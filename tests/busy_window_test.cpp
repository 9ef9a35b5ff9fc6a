// Unit tests for the busy-window / latency analysis (Theorems 1 and 2,
// Lemma 3, Eq. 4) — anchored on the paper's Table I values, which we also
// verified by hand.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/arrival.hpp"
#include "core/busy_window.hpp"
#include "core/case_studies.hpp"
#include "tests/support/saturated_system.hpp"
#include "util/expect.hpp"

namespace wharf {
namespace {

using case_studies::date17_case_study;
using case_studies::kSigmaA;
using case_studies::kSigmaB;
using case_studies::kSigmaC;
using case_studies::kSigmaD;

class CaseStudy : public ::testing::Test {
 protected:
  System system = date17_case_study();
};

// ---------------------------------------------------------------------------
// Table I: WCL(sigma_c) = 331, WCL(sigma_d) = 175
// ---------------------------------------------------------------------------

TEST_F(CaseStudy, TableI_SigmaC_WCL331) {
  const LatencyResult r = latency_analysis(system, kSigmaC);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.wcl, 331);
  EXPECT_FALSE(r.schedulable);  // 331 > D = 200
}

TEST_F(CaseStudy, TableI_SigmaD_WCL175) {
  const LatencyResult r = latency_analysis(system, kSigmaD);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.wcl, 175);
  EXPECT_TRUE(r.schedulable);  // 175 <= D = 200
}

TEST_F(CaseStudy, SigmaC_BusyTimes) {
  // Hand-computed: B_c(1) = 331 (51 + 20 + 30 + 2*115), B_c(2) = 382.
  const LatencyResult r = latency_analysis(system, kSigmaC);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.K, 2);
  ASSERT_EQ(r.busy_times.size(), 2u);
  EXPECT_EQ(r.busy_times[0], 331);
  EXPECT_EQ(r.busy_times[1], 382);
  EXPECT_EQ(r.worst_q, 1);
}

TEST_F(CaseStudy, SigmaD_BusyTimes) {
  // Hand-computed: B_d(1) = 115 + 20 + 30 + 10 (critical segment of c).
  const LatencyResult r = latency_analysis(system, kSigmaD);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.K, 1);
  ASSERT_EQ(r.busy_times.size(), 1u);
  EXPECT_EQ(r.busy_times[0], 175);
}

TEST_F(CaseStudy, Lemma3_MissCounts) {
  const LatencyResult c = latency_analysis(system, kSigmaC);
  ASSERT_TRUE(c.misses_per_window.has_value());
  EXPECT_EQ(*c.misses_per_window, 1);  // only q=1 misses (331>200; 382-200=182<=200)
  const LatencyResult d = latency_analysis(system, kSigmaD);
  ASSERT_TRUE(d.misses_per_window.has_value());
  EXPECT_EQ(*d.misses_per_window, 0);
}

// ---------------------------------------------------------------------------
// The paper's "second analysis": abstract overload chains away.
// ---------------------------------------------------------------------------

TEST_F(CaseStudy, WithoutOverloadSigmaCSchedulable) {
  const LatencyResult r = latency_analysis(system, kSigmaC, {}, system.overload_indices());
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.wcl, 166);  // 51 + 115
  EXPECT_TRUE(r.schedulable);
}

TEST_F(CaseStudy, WithoutOverloadSigmaDSchedulable) {
  const LatencyResult r = latency_analysis(system, kSigmaD, {}, system.overload_indices());
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.wcl, 125);  // 115 + 10
  EXPECT_TRUE(r.schedulable);
}

// ---------------------------------------------------------------------------
// Ablation: naive all-arbitrary interference (no Def. 2-5 structure)
// ---------------------------------------------------------------------------

TEST_F(CaseStudy, NaiveAnalysisPessimisticForSigmaD) {
  AnalysisOptions naive;
  naive.naive_arbitrary = true;
  const LatencyResult r = latency_analysis(system, kSigmaD, naive);
  ASSERT_TRUE(r.bounded);
  // With sigma_c treated as arbitrarily interfering: 115 + 2*51 + 20 + 30.
  EXPECT_EQ(r.busy_times[0], 267);
  EXPECT_EQ(r.wcl, 267);
  EXPECT_FALSE(r.schedulable);  // naive analysis wrongly rejects sigma_d
}

TEST_F(CaseStudy, NaiveAnalysisMatchesImprovedForSigmaC) {
  // Every chain already interferes arbitrarily with sigma_c, so the
  // improved analysis cannot gain anything there.
  AnalysisOptions naive;
  naive.naive_arbitrary = true;
  const LatencyResult r = latency_analysis(system, kSigmaC, naive);
  const LatencyResult improved = latency_analysis(system, kSigmaC);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.wcl, improved.wcl);
}

TEST_F(CaseStudy, NaiveNeverBeatsImproved) {
  AnalysisOptions naive;
  naive.naive_arbitrary = true;
  for (int target : {kSigmaC, kSigmaD}) {
    const LatencyResult n = latency_analysis(system, target, naive);
    const LatencyResult i = latency_analysis(system, target);
    ASSERT_TRUE(n.bounded);
    ASSERT_TRUE(i.bounded);
    EXPECT_GE(n.wcl, i.wcl) << "target " << target;
  }
}

// ---------------------------------------------------------------------------
// Eq. (4) typical bound and slack
// ---------------------------------------------------------------------------

TEST_F(CaseStudy, TypicalBoundSigmaC) {
  const InterferenceContext ctx = make_interference_context(system, kSigmaC);
  // L_c(1) = 51 + eta_d(0 + 200)*115 = 166;  L_c(2) = 102 + eta_d(400)*115 = 332.
  EXPECT_EQ(typical_bound(system, ctx, 1, {}), 166);
  EXPECT_EQ(typical_bound(system, ctx, 2, {}), 332);
}

TEST_F(CaseStudy, TypicalSlackSigmaC) {
  const InterferenceContext ctx = make_interference_context(system, kSigmaC);
  // min(0+200-166, 200+200-332) = min(34, 68) = 34.
  EXPECT_EQ(typical_slack(system, ctx, 2, {}), 34);
}

TEST_F(CaseStudy, TypicalBoundSigmaD) {
  const InterferenceContext ctx = make_interference_context(system, kSigmaD);
  // L_d(1) = 115 + critical segment of sigma_c (10) = 125.
  EXPECT_EQ(typical_bound(system, ctx, 1, {}), 125);
}

// ---------------------------------------------------------------------------
// Eq. (3): busy time with a fixed combination and the exact criterion
// ---------------------------------------------------------------------------

TEST_F(CaseStudy, CombinationBusyTimeMatchesHandComputation) {
  const InterferenceContext ctx = make_interference_context(system, kSigmaC);
  // cost 0: the typical system: B = 51 + 115 = 166.
  EXPECT_EQ(busy_time_with_combination(system, ctx, 1, 0, {}), std::optional<Time>(166));
  // cost 34: B = 51 + 34 + 115 = 200 (eta_d(200) = 1 under our convention).
  EXPECT_EQ(busy_time_with_combination(system, ctx, 1, 34, {}), std::optional<Time>(200));
  // cost 35: window crosses 200 -> second sigma_d instance: B = 316.
  EXPECT_EQ(busy_time_with_combination(system, ctx, 1, 35, {}), std::optional<Time>(316));
  // cost 50 (the paper's combination c3): B = 331 = Table I value.
  EXPECT_EQ(busy_time_with_combination(system, ctx, 1, 50, {}), std::optional<Time>(331));
}

TEST_F(CaseStudy, ExactSlackEqualsEq5SlackHere) {
  // On the case study the sufficient criterion is tight: both give 34.
  const InterferenceContext ctx = make_interference_context(system, kSigmaC);
  EXPECT_EQ(exact_combination_slack(system, ctx, 2, 50, {}), 34);
  EXPECT_EQ(typical_slack(system, ctx, 2, {}), 34);
}

TEST_F(CaseStudy, ExactSlackSaturatesAtMaxCost) {
  const InterferenceContext ctx = make_interference_context(system, kSigmaD);
  // sigma_d has huge margin: even the full overload cost 50 is fine.
  EXPECT_EQ(exact_combination_slack(system, ctx, 1, 50, {}), 50);
}

TEST(BusyWindowExact, NegativeSlackWhenTypicallyUnschedulable) {
  Chain::Spec tight;
  tight.name = "tight";
  tight.arrival = periodic(100);
  tight.deadline = 5;  // impossible even alone
  tight.tasks = {Task{"t", 1, 10}};
  Chain::Spec o;
  o.name = "o";
  o.arrival = sporadic(10'000);
  o.overload = true;
  o.tasks = {Task{"o1", 2, 3}};
  const System sys("tight", {Chain(std::move(tight)), Chain(std::move(o))});
  const InterferenceContext ctx = make_interference_context(sys, 0);
  EXPECT_EQ(exact_combination_slack(sys, ctx, 1, 3, {}), -1);
}

// ---------------------------------------------------------------------------
// Breakdown (itemized Eq. 1)
// ---------------------------------------------------------------------------

TEST_F(CaseStudy, BreakdownSumsToFixedPoint) {
  const InterferenceContext ctx = make_interference_context(system, kSigmaC);
  for (Count q = 1; q <= 2; ++q) {
    const std::optional<Time> b = busy_time(system, ctx, q, {});
    ASSERT_TRUE(b.has_value());
    const auto terms = busy_time_breakdown(system, ctx, q, *b);
    Time sum = 0;
    for (const BusyTimeTerm& t : terms) sum += t.amount;
    EXPECT_EQ(sum, *b) << "q=" << q;
  }
}

TEST_F(CaseStudy, BreakdownSigmaCAtQ1) {
  // 331 = 51 (demand) + 30 (sigma_b) + 20 (sigma_a) + 230 (sigma_d, 2 inst).
  const InterferenceContext ctx = make_interference_context(system, kSigmaC);
  const auto terms = busy_time_breakdown(system, ctx, 1, 331);
  ASSERT_EQ(terms.size(), 4u);
  EXPECT_EQ(terms[0].amount, 51);
  EXPECT_NE(terms[0].label(system).find("demand"), std::string::npos);
  Time sigma_d_amount = 0;
  for (const auto& t : terms) {
    const std::string label = t.label(system);
    if (label.find("sigma_d") != std::string::npos) sigma_d_amount = t.amount;
    if (label.find("sigma_") == 0) {
      EXPECT_NE(label.find("arbitrary"), std::string::npos) << label;
    }
  }
  EXPECT_EQ(sigma_d_amount, 230);
}

TEST_F(CaseStudy, BreakdownSigmaDShowsCriticalSegment) {
  const InterferenceContext ctx = make_interference_context(system, kSigmaD);
  const auto terms = busy_time_breakdown(system, ctx, 1, 175);
  bool found = false;
  for (const BusyTimeTerm& t : terms) {
    const std::string label = t.label(system);
    if (label.find("sigma_c") != std::string::npos) {
      EXPECT_NE(label.find("critical segment"), std::string::npos);
      EXPECT_EQ(t.amount, 10);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(CaseStudy, BreakdownRespectsExclusion) {
  const InterferenceContext ctx = make_interference_context(system, kSigmaC);
  const auto terms = busy_time_breakdown(system, ctx, 1, 166, {}, system.overload_indices());
  Time sum = 0;
  for (const BusyTimeTerm& t : terms) {
    const std::string label = t.label(system);
    EXPECT_EQ(label.find("sigma_b"), std::string::npos);
    EXPECT_EQ(label.find("sigma_a"), std::string::npos);
    sum += t.amount;
  }
  EXPECT_EQ(sum, 166);
}

// ---------------------------------------------------------------------------
// Divergence and guards
// ---------------------------------------------------------------------------

TEST(BusyWindow, OverloadedProcessorDiverges) {
  // Utilization 2.0: the fixed point must be reported unbounded, not loop.
  Chain::Spec s1;
  s1.name = "x";
  s1.arrival = periodic(10);
  s1.deadline = 10;
  s1.tasks = {Task{"x1", 2, 10}};
  Chain::Spec s2;
  s2.name = "y";
  s2.arrival = periodic(10);
  s2.deadline = 10;
  s2.tasks = {Task{"y1", 1, 10}};
  System sys("overloaded", {Chain(std::move(s1)), Chain(std::move(s2))});
  const LatencyResult r = latency_analysis(sys, 1);
  EXPECT_FALSE(r.bounded);
  EXPECT_FALSE(r.reason.empty());
}

TEST(BusyWindow, ExactlyFullUtilizationHandled) {
  // U = 1.0 with harmonic load: busy window never closes for the lower
  // priority chain; must terminate via a cap, not hang.
  Chain::Spec s1;
  s1.name = "x";
  s1.arrival = periodic(10);
  s1.deadline = 10;
  s1.tasks = {Task{"x1", 2, 5}};
  Chain::Spec s2;
  s2.name = "y";
  s2.arrival = periodic(10);
  s2.deadline = 10;
  s2.tasks = {Task{"y1", 1, 5}};
  System sys("full", {Chain(std::move(s1)), Chain(std::move(s2))});
  AnalysisOptions options;
  options.max_busy_windows = 1000;  // keep the test fast
  const LatencyResult r = latency_analysis(sys, 1, options);
  // At exactly U=1 the busy window closes at every q (B(q) = 10q =
  // delta(q+1)); the analysis is bounded with K at the cap or earlier.
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.wcl, 10);
  // Load exactly 1 gives the divergence certificate nothing to prove.
  const LatencyResult ref = reference::latency_analysis(sys, 1, options);
  EXPECT_EQ(r.K, ref.K);
  EXPECT_EQ(r.wcl, ref.wcl);
}

// ---------------------------------------------------------------------------
// Divergence certificate of the K_b search
// ---------------------------------------------------------------------------

TEST(DivergenceCertificate, SweepFixtureIsUnboundedWithItsLoadNamed) {
  // 33300/100000 + 36640/110000 + 39960/120000 + 3000/2500000
  //   = 165048000/165000000 = 6877/6875 > 1.
  const System sys = testsupport::saturated_system();
  const LatencyResult r = latency_analysis(sys, 0);
  EXPECT_FALSE(r.bounded);
  EXPECT_EQ(r.reason, "busy window never closes: charged long-run load 6877/6875 > 1");
  EXPECT_TRUE(r.busy_times.empty());
  EXPECT_EQ(r.K, 0);
  EXPECT_EQ(r.wcl, 0);

  // The capped reference agrees (at a cap it can reach quickly), and the
  // overload-free analysis, whose load is below 1, stays bounded and
  // identical to it.
  AnalysisOptions options;
  options.max_busy_windows = 20'000;
  EXPECT_FALSE(reference::latency_analysis(sys, 0, options).bounded);
  const LatencyResult typical = latency_analysis(sys, 0, options, sys.overload_indices());
  const LatencyResult ref_typical =
      reference::latency_analysis(sys, 0, options, sys.overload_indices());
  ASSERT_TRUE(typical.bounded);
  EXPECT_EQ(typical.K, ref_typical.K);
  EXPECT_EQ(typical.busy_times, ref_typical.busy_times);
  EXPECT_EQ(typical.wcl, ref_typical.wcl);
}

/// A lowest-priority chain `x` (cost 3, arrival `x_arrival` of period 10)
/// under a higher-priority chain `y` (cost 9, period 10): charged load 1.2.
System overloaded_pair(ArrivalModelPtr x_arrival) {
  Chain::Spec x;
  x.name = "x";
  x.arrival = std::move(x_arrival);
  x.tasks = {Task{"x1", 1, 3}};
  Chain::Spec y;
  y.name = "y";
  y.arrival = periodic(10);
  y.tasks = {Task{"y1", 2, 9}};
  return System("pair", {Chain(std::move(x)), Chain(std::move(y))});
}

TEST(DivergenceCertificate, WindowClosingPastTheCheckpointStaysBounded) {
  // Load 10/8 > 1, but 70 activations arrive at once and the 71st only
  // at 10^6: the window cannot close before q = 70 and closes there.
  // The certificate, asked at q = 64, must place its first certified
  // activation past 70 (here at 499721) and let the search find K = 70.
  std::vector<Time> prefix(69, 0);
  prefix.push_back(1'000'000);
  Chain::Spec s;
  s.name = "burst";
  s.arrival = delta_curve(std::move(prefix), 8);
  s.tasks = {Task{"t", 1, 10}};
  const System sys("burst", {Chain(std::move(s))});
  const LatencyResult r = latency_analysis(sys, 0);
  const LatencyResult ref = reference::latency_analysis(sys, 0);
  ASSERT_TRUE(r.bounded) << r.reason;
  EXPECT_EQ(r.K, 70);
  EXPECT_EQ(r.wcl, 700);
  EXPECT_EQ(r.K, ref.K);
  EXPECT_EQ(r.busy_times, ref.busy_times);
  EXPECT_EQ(r.wcl, ref.wcl);
}

TEST(DivergenceCertificate, CurveWithoutFlatTableFallsBackToTheCap) {
  // A jitter/slack ratio this large makes the dense prefix too long to
  // materialize, so the analyzed chain has no flat table to bound.
  const System sys = overloaded_pair(periodic_jitter(10, 50'000, 9));
  AnalysisOptions options;
  options.max_busy_windows = 200;
  const LatencyResult r = latency_analysis(sys, 0, options);
  EXPECT_FALSE(r.bounded);
  EXPECT_EQ(r.reason, "no maximal busy window within 200 activations (K_b search cap)");
  EXPECT_TRUE(r.busy_times.empty());

  // The same load with a flat curve is certified.
  EXPECT_EQ(latency_analysis(overloaded_pair(periodic(10)), 0, options).reason,
            "busy window never closes: charged long-run load 6/5 > 1");
}

TEST(DivergenceCertificate, OverflowingCommonDenominatorFallsBackToTheCap) {
  // Five nearly coprime periods around 1e9: the least common multiple of
  // the spans is far beyond 128 bits, so the exact load cannot be formed.
  std::vector<Chain> chains;
  for (int i = 0; i < 5; ++i) {
    Chain::Spec spec;
    spec.name = "c" + std::to_string(i);
    const Time period = 1'000'000'001 + i;
    spec.arrival = periodic(period);
    const Time wcet = i == 0 ? 300'000'000 : 200'000'000;
    spec.tasks = {Task{"t" + std::to_string(i), Priority(1 + i), wcet}};
    chains.emplace_back(std::move(spec));
  }
  const System sys("coprime", std::move(chains));
  AnalysisOptions options;
  options.max_busy_windows = 200;
  const LatencyResult r = latency_analysis(sys, 0, options);
  EXPECT_FALSE(r.bounded);
  EXPECT_EQ(r.reason, "no maximal busy window within 200 activations (K_b search cap)");
  EXPECT_FALSE(reference::latency_analysis(sys, 0, options).bounded);
}

TEST(BusyWindow, SingleChainAloneIsItsOwnWcet) {
  Chain::Spec s;
  s.name = "solo";
  s.arrival = periodic(100);
  s.deadline = 100;
  s.tasks = {Task{"t1", 2, 7}, Task{"t2", 1, 5}};
  System sys("solo", {Chain(std::move(s))});
  const LatencyResult r = latency_analysis(sys, 0);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.K, 1);
  EXPECT_EQ(r.wcl, 12);
  EXPECT_TRUE(r.schedulable);
}

TEST(BusyWindow, BusyTimeRequiresPositiveQ) {
  const System sys = date17_case_study();
  const InterferenceContext ctx = make_interference_context(sys, kSigmaC);
  EXPECT_THROW((void)busy_time(sys, ctx, 0, {}), InvalidArgument);
}

TEST(BusyWindow, ChainWithoutDeadlineHasNoMissData) {
  Chain::Spec s;
  s.name = "nodl";
  s.arrival = periodic(100);
  s.tasks = {Task{"t1", 1, 7}};
  System sys("nodl", {Chain(std::move(s))});
  const LatencyResult r = latency_analysis(sys, 0);
  ASSERT_TRUE(r.bounded);
  EXPECT_FALSE(r.misses_per_window.has_value());
  EXPECT_FALSE(r.schedulable);
  EXPECT_EQ(r.wcl, 7);
}

// ---------------------------------------------------------------------------
// Asynchronous self-interference term (2nd line of Eq. 1)
// ---------------------------------------------------------------------------

TEST(BusyWindow, AsynchronousSelfInterference) {
  // One async chain, alone: tasks (prio 2, C=6), (prio 1, C=6), period 10.
  // q=1: B = 12 + max(0, eta(B)-1)*6 ... instances pile up: eta(12)=2 ->
  // B=18, eta(18)=2 -> 18. So B(1)=18, latency 18.
  Chain::Spec s;
  s.name = "async";
  s.kind = ChainKind::kAsynchronous;
  s.arrival = periodic(10);
  s.deadline = 100;
  s.tasks = {Task{"h", 2, 6}, Task{"t", 1, 6}};
  System sys("async", {Chain(std::move(s))});
  AnalysisOptions options;
  options.max_busy_windows = 100000;
  const LatencyResult r = latency_analysis(sys, 0, options);
  // Utilization 1.2 > 1: diverges, and the certificate says why.
  EXPECT_FALSE(r.bounded);
  EXPECT_EQ(r.reason, "busy window never closes: charged long-run load 6/5 > 1");
  EXPECT_TRUE(r.busy_times.empty());
}

TEST(BusyWindow, AsynchronousSelfInterferenceBounded) {
  // Async chain with period 20 (U = 0.6): B(1) = 12, no pile-up
  // (eta(12) = 1), K = 1.
  Chain::Spec s;
  s.name = "async";
  s.kind = ChainKind::kAsynchronous;
  s.arrival = periodic(20);
  s.deadline = 100;
  s.tasks = {Task{"h", 2, 6}, Task{"t", 1, 6}};
  System sys("async", {Chain(std::move(s))});
  const LatencyResult r = latency_analysis(sys, 0);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.K, 1);
  EXPECT_EQ(r.wcl, 12);
}

TEST(BusyWindow, AsynchronousHeaderPileUp) {
  // Async chain where the header (high prio) can pile up while the tail
  // (lowest prio) is blocked: period 10, header C=3 (prio 3), tail C=4
  // (prio 1), U = 0.7. B(1) = 7 + max(0, eta(B)-1)*3: eta(7)=1 -> 7.
  // B(2) = 14 + max(0, eta(14)-2)*3 = 14; 14 > delta(3)=20? no -> K=2.
  Chain::Spec s;
  s.name = "async";
  s.kind = ChainKind::kAsynchronous;
  s.arrival = periodic(10);
  s.deadline = 100;
  s.tasks = {Task{"h", 3, 3}, Task{"t", 1, 4}};
  System sys("async", {Chain(std::move(s))});
  const LatencyResult r = latency_analysis(sys, 0);
  ASSERT_TRUE(r.bounded);
  EXPECT_EQ(r.busy_times[0], 7);
  EXPECT_EQ(r.wcl, 7);
}

}  // namespace
}  // namespace wharf
