// Unit tests for the dmm-curve breakpoint search, anchored on the
// paper's Table II breakpoint structure.  The case-study curves are
// probed through Session::dmm, the path `wharf dmm --breakpoints` takes.

#include <gtest/gtest.h>

#include "core/case_studies.hpp"
#include "core/dmm_curve.hpp"
#include "engine/session.hpp"
#include "util/expect.hpp"

namespace wharf {
namespace {

using case_studies::date17_case_study;
using case_studies::kSigmaC;
using case_studies::kSigmaD;
using case_studies::OverloadModel;

/// A session on the case study whose dmm(k) curves the tests scan.
class CaseStudyCurve {
 public:
  explicit CaseStudyCurve(OverloadModel model)
      : session_(engine_.open_session(date17_case_study(model))) {}

  Count dmm(int chain, Count k) { return session_.dmm(chain, k).dmm; }

  std::vector<DmmBreakpoint> breakpoints(int chain, Count k_max) {
    return dmm_breakpoints([&](Count k) { return dmm(chain, k); }, k_max);
  }

 private:
  Engine engine_;
  Session session_;
};

class RareCurve : public ::testing::Test {
 protected:
  CaseStudyCurve curve{OverloadModel::kRareOverload};
};

TEST_F(RareCurve, BreakpointsMatchTableII) {
  const auto bps = curve.breakpoints(kSigmaC, 300);
  // dmm(1)=1, dmm(2)=2, dmm(3)=3, then the paper's breakpoints at 76, 250.
  ASSERT_EQ(bps.size(), 5u);
  EXPECT_EQ(bps[0].k, 1);
  EXPECT_EQ(bps[0].dmm, 1);
  EXPECT_EQ(bps[1].k, 2);
  EXPECT_EQ(bps[1].dmm, 2);
  EXPECT_EQ(bps[2].k, 3);
  EXPECT_EQ(bps[2].dmm, 3);
  EXPECT_EQ(bps[3].k, 76);
  EXPECT_EQ(bps[3].dmm, 4);
  EXPECT_EQ(bps[4].k, 250);
  EXPECT_EQ(bps[4].dmm, 5);
}

TEST_F(RareCurve, BreakpointsExtendWithTailPeriod) {
  // Next steps come from delta_minus(5)=85000 and delta_minus(6)=120000:
  // (k-1)*200 + 331 > 85000  =>  k = 425;  > 120000  =>  k = 600.
  const auto bps = curve.breakpoints(kSigmaC, 700);
  ASSERT_GE(bps.size(), 7u);
  EXPECT_EQ(bps[5].k, 425);
  EXPECT_EQ(bps[5].dmm, 6);
  EXPECT_EQ(bps[6].k, 600);
  EXPECT_EQ(bps[6].dmm, 7);
}

TEST_F(RareCurve, BreakpointsConsistentWithPointQueries) {
  const auto bps = curve.breakpoints(kSigmaC, 300);
  for (std::size_t i = 0; i < bps.size(); ++i) {
    EXPECT_EQ(curve.dmm(kSigmaC, bps[i].k), bps[i].dmm);
    if (bps[i].k > 1) {
      EXPECT_LT(curve.dmm(kSigmaC, bps[i].k - 1), bps[i].dmm)
          << "k=" << bps[i].k << " must be the first k at this level";
    }
  }
}

TEST_F(RareCurve, ScheduableChainHasFlatZeroCurve) {
  const auto bps = curve.breakpoints(kSigmaD, 500);
  ASSERT_EQ(bps.size(), 1u);
  EXPECT_EQ(bps[0].k, 1);
  EXPECT_EQ(bps[0].dmm, 0);
}

TEST_F(RareCurve, ArgumentValidation) {
  EXPECT_THROW((void)curve.breakpoints(kSigmaC, 0), InvalidArgument);
}

TEST(DmmCurveLiteral, BreakpointsDenser) {
  // With the literal sporadic model the curve climbs roughly every
  // 3-4 activations (Omega grows linearly with the window).
  CaseStudyCurve curve{OverloadModel::kLiteralSporadic};
  const auto bps = curve.breakpoints(kSigmaC, 100);
  ASSERT_GE(bps.size(), 10u);
  // Monotone strictly increasing values, strictly increasing ks.
  for (std::size_t i = 1; i < bps.size(); ++i) {
    EXPECT_GT(bps[i].k, bps[i - 1].k);
    EXPECT_GT(bps[i].dmm, bps[i - 1].dmm);
  }
}

TEST(DmmCurveSearch, FindsEveryStepOfAnArbitraryMonotoneCurve) {
  // A step function with a multi-unit jump and a step at k_max itself.
  const auto curve = [](Count k) -> Count { return k < 5 ? 0 : k < 9 ? 3 : k < 20 ? 4 : 10; };
  const auto bps = dmm_breakpoints(curve, 20);
  ASSERT_EQ(bps.size(), 4u);
  EXPECT_EQ(bps[0].k, 1);
  EXPECT_EQ(bps[0].dmm, 0);
  EXPECT_EQ(bps[1].k, 5);
  EXPECT_EQ(bps[1].dmm, 3);
  EXPECT_EQ(bps[2].k, 9);
  EXPECT_EQ(bps[2].dmm, 4);
  EXPECT_EQ(bps[3].k, 20);
  EXPECT_EQ(bps[3].dmm, 10);
  // Past the horizon nothing is reported.
  EXPECT_EQ(dmm_breakpoints(curve, 19).size(), 3u);
}

}  // namespace
}  // namespace wharf
