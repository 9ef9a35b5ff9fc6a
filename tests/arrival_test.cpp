// Unit tests for arrival models (src/core/arrival): exact values per
// model, the eta/delta duality convention, and parse/describe round-trips.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/arrival.hpp"
#include "util/expect.hpp"

namespace wharf {
namespace {

// ---------------------------------------------------------------------------
// Periodic
// ---------------------------------------------------------------------------

TEST(Periodic, EtaPlusMatchesCeil) {
  const auto m = periodic(200);
  EXPECT_EQ(m->eta_plus(0), 0);
  EXPECT_EQ(m->eta_plus(-5), 0);
  EXPECT_EQ(m->eta_plus(1), 1);
  EXPECT_EQ(m->eta_plus(200), 1);  // paper-calibrated convention (core/arrival.hpp)
  EXPECT_EQ(m->eta_plus(201), 2);
  EXPECT_EQ(m->eta_plus(331), 2);
  EXPECT_EQ(m->eta_plus(400), 2);
  EXPECT_EQ(m->eta_plus(401), 3);
}

TEST(Periodic, EtaMinusMatchesFloor) {
  const auto m = periodic(200);
  EXPECT_EQ(m->eta_minus(0), 0);
  EXPECT_EQ(m->eta_minus(199), 0);
  EXPECT_EQ(m->eta_minus(200), 1);
  EXPECT_EQ(m->eta_minus(401), 2);
}

TEST(Periodic, Deltas) {
  const auto m = periodic(200);
  EXPECT_EQ(m->delta_minus(1), 0);
  EXPECT_EQ(m->delta_minus(2), 200);
  EXPECT_EQ(m->delta_minus(5), 800);
  EXPECT_EQ(m->delta_plus(2), 200);
  EXPECT_EQ(m->delta_plus(5), 800);
  EXPECT_EQ(m->delta_minus(0), 0);
}

TEST(Periodic, InfiniteWindow) {
  const auto m = periodic(200);
  EXPECT_EQ(m->eta_plus(kTimeInfinity), kCountInfinity);
}

TEST(Periodic, RateAndDescribe) {
  const auto m = periodic(200);
  EXPECT_DOUBLE_EQ(m->rate_upper(), 1.0 / 200.0);
  EXPECT_EQ(m->describe(), "periodic(200)");
}

TEST(Periodic, RejectsBadPeriod) {
  EXPECT_THROW(periodic(0), InvalidArgument);
  EXPECT_THROW(periodic(-3), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Sporadic
// ---------------------------------------------------------------------------

TEST(Sporadic, CaseStudyValues) {
  const auto a = sporadic(700);
  EXPECT_EQ(a->eta_plus(731), 2);    // Table II, k=3 window
  EXPECT_EQ(a->eta_plus(15331), 22); // literal model, k=76 window
  EXPECT_EQ(a->delta_minus(2), 700);
  EXPECT_EQ(a->delta_minus(3), 1400);
  EXPECT_EQ(a->delta_plus(2), kTimeInfinity);
  EXPECT_EQ(a->delta_plus(1), 0);
  EXPECT_EQ(a->eta_minus(100000), 0);
}

TEST(Sporadic, Describe) { EXPECT_EQ(sporadic(700)->describe(), "sporadic(700)"); }

// ---------------------------------------------------------------------------
// Periodic with jitter
// ---------------------------------------------------------------------------

TEST(PeriodicJitter, EtaPlus) {
  const auto m = periodic_jitter(100, 30, 5);
  // min(ceil((dt+30)/100), ceil(dt/5))
  EXPECT_EQ(m->eta_plus(0), 0);
  EXPECT_EQ(m->eta_plus(1), 1);
  EXPECT_EQ(m->eta_plus(10), 1);   // ceil(40/100)=1 limits
  EXPECT_EQ(m->eta_plus(71), 2);   // ceil(101/100)=2, ceil(71/5)=15
  EXPECT_EQ(m->eta_plus(170), 2);
  EXPECT_EQ(m->eta_plus(171), 3);
}

TEST(PeriodicJitter, Deltas) {
  const auto m = periodic_jitter(100, 30, 5);
  EXPECT_EQ(m->delta_minus(2), 70);   // max(5, 100-30)
  EXPECT_EQ(m->delta_minus(3), 170);
  EXPECT_EQ(m->delta_plus(2), 130);
  EXPECT_EQ(m->delta_plus(3), 230);
}

TEST(PeriodicJitter, LargeJitterBurst) {
  const auto m = periodic_jitter(100, 250, 2);
  // Jitter larger than two periods: short windows limited by
  // min_distance only: delta_minus(q) = max((q-1)*2, (q-1)*100 - 250).
  EXPECT_EQ(m->delta_minus(2), 2);
  EXPECT_EQ(m->delta_minus(3), 4);
}

TEST(PeriodicJitter, LargeJitterDeltaMinusExact) {
  const auto m = periodic_jitter(100, 250, 2);
  EXPECT_EQ(m->delta_minus(3), 4);
  EXPECT_EQ(m->delta_minus(4), 50);   // max(6, 300-250) = 50
  EXPECT_EQ(m->delta_minus(5), 150);  // max(8, 400-250) = 150
}

TEST(PeriodicJitter, EtaMinus) {
  const auto m = periodic_jitter(100, 30, 5);
  EXPECT_EQ(m->eta_minus(30), 0);
  EXPECT_EQ(m->eta_minus(130), 1);
  EXPECT_EQ(m->eta_minus(229), 1);
  EXPECT_EQ(m->eta_minus(230), 2);
}

TEST(PeriodicJitter, Validation) {
  EXPECT_THROW(periodic_jitter(100, -1, 1), InvalidArgument);
  EXPECT_THROW(periodic_jitter(100, 0, 0), InvalidArgument);
  EXPECT_THROW(periodic_jitter(100, 0, 101), InvalidArgument);
  EXPECT_NO_THROW(periodic_jitter(100, 0, 100));
}

TEST(PeriodicJitter, ZeroJitterEqualsPeriodic) {
  const auto j = periodic_jitter(150, 0, 1);
  const auto p = periodic(150);
  for (Time dt : {0, 1, 149, 150, 151, 300, 301, 1000}) {
    EXPECT_EQ(j->eta_plus(dt), p->eta_plus(dt)) << "dt=" << dt;
  }
  for (Count q = 1; q <= 10; ++q) {
    EXPECT_EQ(j->delta_minus(q), p->delta_minus(q)) << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// Delta curve (rare overload)
// ---------------------------------------------------------------------------

TEST(DeltaCurve, RareOverloadCalibration) {
  // The curve that reproduces Table II exactly (see `bench_sensitivity` in
  // docs/benchmarks.md).
  const auto m = delta_curve({700, 15200, 50000}, 35000);
  EXPECT_EQ(m->delta_minus(1), 0);
  EXPECT_EQ(m->delta_minus(2), 700);
  EXPECT_EQ(m->delta_minus(3), 15200);
  EXPECT_EQ(m->delta_minus(4), 50000);
  EXPECT_EQ(m->delta_minus(5), 85000);
  EXPECT_EQ(m->delta_minus(6), 120000);

  EXPECT_EQ(m->eta_plus(700), 1);
  EXPECT_EQ(m->eta_plus(701), 2);
  EXPECT_EQ(m->eta_plus(731), 2);     // k=3 window -> Omega 3
  EXPECT_EQ(m->eta_plus(15131), 2);   // k=75 window -> dmm stays 3
  EXPECT_EQ(m->eta_plus(15331), 3);   // k=76 window -> dmm 4 (paper breakpoint)
  EXPECT_EQ(m->eta_plus(49931), 3);   // k=249
  EXPECT_EQ(m->eta_plus(50131), 4);   // k=250 -> dmm 5 (paper breakpoint)
  EXPECT_EQ(m->eta_plus(85001), 5);
}

TEST(DeltaCurve, TailExtrapolation) {
  const auto m = delta_curve({10}, 100);
  EXPECT_EQ(m->delta_minus(2), 10);
  EXPECT_EQ(m->delta_minus(3), 110);
  EXPECT_EQ(m->delta_minus(12), 1010);
  EXPECT_EQ(m->eta_plus(10), 1);
  EXPECT_EQ(m->eta_plus(11), 2);
  EXPECT_EQ(m->eta_plus(110), 2);
  EXPECT_EQ(m->eta_plus(111), 3);
  EXPECT_EQ(m->eta_plus(1011), 12);
}

TEST(DeltaCurve, BurstOfSimultaneousArrivals) {
  // delta_minus(2) = 0: two activations may coincide.
  const auto m = delta_curve({0, 50}, 50);
  EXPECT_EQ(m->eta_plus(1), 2);
  EXPECT_EQ(m->eta_plus(50), 2);
  EXPECT_EQ(m->eta_plus(51), 3);
}

TEST(DeltaCurve, Validation) {
  EXPECT_THROW(delta_curve({}, 100), InvalidArgument);
  EXPECT_THROW(delta_curve({100, 50}, 100), InvalidArgument);  // decreasing
  EXPECT_THROW(delta_curve({100}, 0), InvalidArgument);
}

TEST(DeltaCurveWithPlus, BothCurvesServed) {
  // delta_minus: 250, 550, ... slope 300; delta_plus: 350, 650, ... slope 300.
  const auto m = delta_curve_with_plus({250, 550}, 300, {350, 650}, 300);
  EXPECT_EQ(m->delta_minus(2), 250);
  EXPECT_EQ(m->delta_minus(3), 550);
  EXPECT_EQ(m->delta_minus(4), 850);  // one tail step beyond the prefix
  EXPECT_EQ(m->delta_plus(2), 350);
  EXPECT_EQ(m->delta_plus(3), 650);
  EXPECT_EQ(m->delta_plus(4), 950);
  EXPECT_FALSE(is_infinite(m->delta_plus(50)));
}

TEST(DeltaCurveWithPlus, EtaMinusFromPlusCurve) {
  const auto m = delta_curve_with_plus({250, 550}, 300, {350, 650}, 300);
  // eta_minus(dt) = max{q | delta_plus(q+1) <= dt}.
  EXPECT_EQ(m->eta_minus(349), 0);
  EXPECT_EQ(m->eta_minus(350), 1);
  EXPECT_EQ(m->eta_minus(649), 1);
  EXPECT_EQ(m->eta_minus(650), 2);
  EXPECT_EQ(m->eta_minus(950), 3);
}

TEST(DeltaCurveWithPlus, DescribeAndParseRoundTrip) {
  const auto m = delta_curve_with_plus({250, 550}, 300, {350, 650}, 300);
  EXPECT_EQ(m->describe(), "curve(250,550;300|350,650;300)");
  const auto parsed = parse_arrival(m->describe());
  for (Count q = 1; q <= 10; ++q) {
    EXPECT_EQ(parsed->delta_minus(q), m->delta_minus(q));
    EXPECT_EQ(parsed->delta_plus(q), m->delta_plus(q));
  }
  for (Time dt : {0, 349, 350, 650, 5000}) {
    EXPECT_EQ(parsed->eta_minus(dt), m->eta_minus(dt));
    EXPECT_EQ(parsed->eta_plus(dt), m->eta_plus(dt));
  }
}

TEST(DeltaCurveWithPlus, Validation) {
  // plus below minus is rejected.
  EXPECT_THROW(delta_curve_with_plus({250}, 300, {100}, 300), InvalidArgument);
  // plus tail slower than minus tail is rejected (curves would cross).
  EXPECT_THROW(delta_curve_with_plus({250}, 300, {350}, 200), InvalidArgument);
  // decreasing plus prefix rejected.
  EXPECT_THROW(delta_curve_with_plus({10, 20}, 30, {50, 40}, 30), InvalidArgument);
}

TEST(DeltaCurve, SporadicTail) {
  const auto m = delta_curve({700, 15200, 50000}, 35000);
  EXPECT_EQ(m->delta_plus(2), kTimeInfinity);
  EXPECT_EQ(m->eta_minus(1000000), 0);
  EXPECT_DOUBLE_EQ(m->rate_upper(), 1.0 / 35000.0);
}

// ---------------------------------------------------------------------------
// Sporadic burst
// ---------------------------------------------------------------------------

TEST(SporadicBurst, DeltaMinusPacksBursts) {
  // 3 events per 100-tick window, 10 apart inside a burst.
  const auto m = sporadic_burst(100, 3, 10);
  EXPECT_EQ(m->delta_minus(1), 0);
  EXPECT_EQ(m->delta_minus(2), 10);
  EXPECT_EQ(m->delta_minus(3), 20);
  EXPECT_EQ(m->delta_minus(4), 100);
  EXPECT_EQ(m->delta_minus(5), 110);
  EXPECT_EQ(m->delta_minus(7), 200);
}

TEST(SporadicBurst, EtaPlus) {
  const auto m = sporadic_burst(100, 3, 10);
  EXPECT_EQ(m->eta_plus(0), 0);
  EXPECT_EQ(m->eta_plus(1), 1);
  EXPECT_EQ(m->eta_plus(10), 1);
  EXPECT_EQ(m->eta_plus(11), 2);
  EXPECT_EQ(m->eta_plus(21), 3);
  EXPECT_EQ(m->eta_plus(100), 3);
  EXPECT_EQ(m->eta_plus(101), 4);
  EXPECT_EQ(m->eta_plus(111), 5);
  EXPECT_EQ(m->eta_plus(200), 6);
  EXPECT_EQ(m->eta_plus(201), 7);
}

TEST(SporadicBurst, SingleEventBurstEqualsSporadic) {
  const auto b = sporadic_burst(700, 1, 1);
  const auto s = sporadic(700);
  for (Time dt : {0, 1, 700, 701, 1400, 1401, 15331}) {
    EXPECT_EQ(b->eta_plus(dt), s->eta_plus(dt)) << "dt=" << dt;
  }
  for (Count q = 1; q <= 10; ++q) {
    EXPECT_EQ(b->delta_minus(q), s->delta_minus(q)) << "q=" << q;
  }
}

TEST(SporadicBurst, Validation) {
  EXPECT_THROW(sporadic_burst(0, 1, 1), InvalidArgument);
  EXPECT_THROW(sporadic_burst(100, 0, 1), InvalidArgument);
  EXPECT_THROW(sporadic_burst(100, 3, 0), InvalidArgument);
  EXPECT_THROW(sporadic_burst(100, 3, 51), InvalidArgument);  // (3-1)*51 > 100
  EXPECT_NO_THROW(sporadic_burst(100, 3, 50));
}

TEST(SporadicBurst, SporadicSemantics) {
  const auto m = sporadic_burst(100, 3, 10);
  EXPECT_EQ(m->delta_plus(2), kTimeInfinity);
  EXPECT_EQ(m->eta_minus(10'000), 0);
  EXPECT_DOUBLE_EQ(m->rate_upper(), 0.03);
  EXPECT_EQ(m->describe(), "burst(100,3,10)");
}

// ---------------------------------------------------------------------------
// Duality properties (parameterized across models)
// ---------------------------------------------------------------------------

struct ModelCase {
  std::string name;
  ArrivalModelPtr model;
};

class ArrivalDuality : public ::testing::TestWithParam<int> {
 public:
  static std::vector<ModelCase> cases() {
    return {
        {"periodic200", periodic(200)},
        {"periodic7", periodic(7)},
        {"sporadic700", sporadic(700)},
        {"sporadic1", sporadic(1)},
        {"jitter100_30_5", periodic_jitter(100, 30, 5)},
        {"jitter100_250_2", periodic_jitter(100, 250, 2)},
        {"rare", delta_curve({700, 15200, 50000}, 35000)},
        {"burst_curve", delta_curve({0, 0, 90}, 90)},
        {"burst100_3_10", sporadic_burst(100, 3, 10)},
        {"burst700_2_50", sporadic_burst(700, 2, 50)},
    };
  }
};

TEST_P(ArrivalDuality, EtaDeltaConventionHolds) {
  const ModelCase mc = cases()[static_cast<std::size_t>(GetParam())];
  const ArrivalModel& m = *mc.model;
  for (Count q = 1; q <= 40; ++q) {
    const Time d = m.delta_minus(q);
    if (is_infinite(d)) continue;
    // eta_plus(dt) = max{q | delta_minus(q) < dt} implies both bounds:
    EXPECT_LE(m.eta_plus(d), q - 1) << mc.name << " q=" << q;
    EXPECT_GE(m.eta_plus(d + 1), q) << mc.name << " q=" << q;
  }
}

TEST_P(ArrivalDuality, DeltaMinusMonotone) {
  const ModelCase mc = cases()[static_cast<std::size_t>(GetParam())];
  Time prev = 0;
  for (Count q = 1; q <= 60; ++q) {
    const Time d = mc.model->delta_minus(q);
    EXPECT_GE(d, prev) << mc.name << " q=" << q;
    prev = d;
  }
}

TEST_P(ArrivalDuality, EtaPlusMonotone) {
  const ModelCase mc = cases()[static_cast<std::size_t>(GetParam())];
  Count prev = 0;
  for (Time dt = 0; dt <= 2000; dt += 13) {
    const Count e = mc.model->eta_plus(dt);
    EXPECT_GE(e, prev) << mc.name << " dt=" << dt;
    prev = e;
  }
}

TEST_P(ArrivalDuality, EtaMinusNeverExceedsEtaPlus) {
  const ModelCase mc = cases()[static_cast<std::size_t>(GetParam())];
  for (Time dt = 0; dt <= 2000; dt += 17) {
    EXPECT_LE(mc.model->eta_minus(dt), mc.model->eta_plus(dt)) << mc.name << " dt=" << dt;
  }
}

TEST_P(ArrivalDuality, DeltaPlusDominatesDeltaMinus) {
  const ModelCase mc = cases()[static_cast<std::size_t>(GetParam())];
  for (Count q = 1; q <= 40; ++q) {
    EXPECT_GE(mc.model->delta_plus(q), mc.model->delta_minus(q)) << mc.name << " q=" << q;
  }
}

TEST_P(ArrivalDuality, DescribeParsesBack) {
  const ModelCase mc = cases()[static_cast<std::size_t>(GetParam())];
  const ArrivalModelPtr reparsed = parse_arrival(mc.model->describe());
  for (Time dt : {0, 1, 99, 100, 101, 700, 701, 15331, 50131}) {
    EXPECT_EQ(reparsed->eta_plus(dt), mc.model->eta_plus(dt)) << mc.name << " dt=" << dt;
  }
  for (Count q = 1; q <= 12; ++q) {
    EXPECT_EQ(reparsed->delta_minus(q), mc.model->delta_minus(q)) << mc.name << " q=" << q;
    EXPECT_EQ(reparsed->delta_plus(q), mc.model->delta_plus(q)) << mc.name << " q=" << q;
  }
  EXPECT_EQ(reparsed->describe(), mc.model->describe()) << mc.name;
}

INSTANTIATE_TEST_SUITE_P(AllModels, ArrivalDuality,
                         ::testing::Range(0, static_cast<int>(ArrivalDuality::cases().size())));

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(ParseArrival, Forms) {
  EXPECT_EQ(parse_arrival("periodic(200)")->describe(), "periodic(200)");
  EXPECT_EQ(parse_arrival("sporadic(700)")->describe(), "sporadic(700)");
  EXPECT_EQ(parse_arrival("periodic_jitter(100,30,5)")->describe(),
            "periodic_jitter(100,30,5)");
  EXPECT_EQ(parse_arrival("periodic_jitter(100,30)")->describe(), "periodic_jitter(100,30,1)");
  EXPECT_EQ(parse_arrival("curve(700,15200,50000;35000)")->describe(),
            "curve(700,15200,50000;35000)");
  EXPECT_EQ(parse_arrival("burst(100,3,10)")->describe(), "burst(100,3,10)");
  EXPECT_EQ(parse_arrival("  periodic(42)  ")->describe(), "periodic(42)");
}

TEST(ParseArrival, Errors) {
  EXPECT_THROW(parse_arrival(""), InvalidArgument);
  EXPECT_THROW(parse_arrival("periodic"), InvalidArgument);
  EXPECT_THROW(parse_arrival("periodic(x)"), InvalidArgument);
  EXPECT_THROW(parse_arrival("nonsense(5)"), InvalidArgument);
  EXPECT_THROW(parse_arrival("periodic(0)"), InvalidArgument);
  EXPECT_THROW(parse_arrival("curve(700;)"), InvalidArgument);
  EXPECT_THROW(parse_arrival("curve(700)"), InvalidArgument);
  EXPECT_THROW(parse_arrival("periodic_jitter(100)"), InvalidArgument);
  EXPECT_THROW(parse_arrival("burst(100,3)"), InvalidArgument);
  EXPECT_THROW(parse_arrival("burst(100,3,200)"), InvalidArgument);
}

}  // namespace
}  // namespace wharf
