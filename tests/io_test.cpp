// Unit tests for src/io: system format round-trips and parse errors, the
// JSON writer, tables/histograms and the Gantt renderer.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/case_studies.hpp"
#include "core/twca.hpp"
#include "io/gantt.hpp"
#include "io/json.hpp"
#include "io/report.hpp"
#include "io/system_format.hpp"
#include "io/tables.hpp"
#include "sim/simulator.hpp"
#include "util/expect.hpp"
#include "util/strings.hpp"

namespace wharf::io {
namespace {

// ---------------------------------------------------------------------------
// System format
// ---------------------------------------------------------------------------

TEST(SystemFormat, RoundTripCaseStudy) {
  const System original = case_studies::date17_case_study();
  const std::string text = serialize_system(original);
  const System parsed = parse_system(text);
  EXPECT_EQ(parsed.name(), original.name());
  ASSERT_EQ(parsed.size(), original.size());
  for (int c = 0; c < original.size(); ++c) {
    EXPECT_EQ(parsed.chain(c).name(), original.chain(c).name());
    EXPECT_EQ(parsed.chain(c).kind(), original.chain(c).kind());
    EXPECT_EQ(parsed.chain(c).deadline(), original.chain(c).deadline());
    EXPECT_EQ(parsed.chain(c).is_overload(), original.chain(c).is_overload());
    EXPECT_EQ(parsed.chain(c).arrival().describe(), original.chain(c).arrival().describe());
    ASSERT_EQ(parsed.chain(c).size(), original.chain(c).size());
    for (int t = 0; t < original.chain(c).size(); ++t) {
      EXPECT_EQ(parsed.chain(c).task(t).name, original.chain(c).task(t).name);
      EXPECT_EQ(parsed.chain(c).task(t).priority, original.chain(c).task(t).priority);
      EXPECT_EQ(parsed.chain(c).task(t).wcet, original.chain(c).task(t).wcet);
    }
  }
}

TEST(SystemFormat, RoundTripRareOverloadCurve) {
  const System original =
      case_studies::date17_case_study(case_studies::OverloadModel::kRareOverload);
  const System parsed = parse_system(serialize_system(original));
  EXPECT_EQ(parsed.chain(case_studies::kSigmaA).arrival().describe(),
            "curve(700,15200,50000;35000)");
}

TEST(SystemFormat, ParsesMinimalSystem) {
  const System s = parse_system(R"(
# comment line
system demo
chain c1 kind=sync activation=periodic(100) deadline=100
  task t1 prio=2 wcet=10
  task t2 prio=1 wcet=5
chain ov activation=sporadic(5000) overload
  task o1 prio=3 wcet=7
)");
  EXPECT_EQ(s.name(), "demo");
  EXPECT_EQ(s.size(), 2);
  EXPECT_TRUE(s.chain(1).is_overload());
  EXPECT_EQ(s.chain(0).total_wcet(), 15);
}

TEST(SystemFormat, AsyncKindParsed) {
  const System s = parse_system(
      "system d\nchain c kind=async activation=periodic(50) deadline=50\n  task t prio=1 wcet=1\n");
  EXPECT_TRUE(s.chain(0).is_asynchronous());
}

struct ParseErrorCase {
  std::string name;
  std::string text;
  int line;
};

class SystemFormatErrors : public ::testing::TestWithParam<ParseErrorCase> {};

TEST_P(SystemFormatErrors, ReportsLineNumber) {
  try {
    (void)parse_system(GetParam().text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), GetParam().line) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SystemFormatErrors,
    ::testing::Values(
        ParseErrorCase{"chain_before_system",
                       "chain c activation=periodic(10)\n", 1},
        ParseErrorCase{"task_outside_chain", "system s\ntask t prio=1 wcet=1\n", 2},
        ParseErrorCase{"unknown_directive", "system s\nbogus x\n", 2},
        ParseErrorCase{"bad_kind",
                       "system s\nchain c kind=weird activation=periodic(10)\n", 2},
        ParseErrorCase{"missing_activation", "system s\nchain c kind=sync\n", 2},
        ParseErrorCase{"bad_activation",
                       "system s\nchain c activation=periodic(x)\n", 2},
        ParseErrorCase{"task_missing_wcet",
                       "system s\nchain c activation=periodic(10)\n  task t prio=1\n", 3},
        ParseErrorCase{"chain_without_tasks",
                       "system s\nchain c activation=periodic(10)\n", 2},
        ParseErrorCase{"unknown_chain_attr",
                       "system s\nchain c activation=periodic(10) bogus=1\n", 2},
        ParseErrorCase{"duplicate_system",
                       "system s\nsystem t\n", 2}),
    [](const ::testing::TestParamInfo<ParseErrorCase>& info) { return info.param.name; });

TEST(SystemFormat, ModelInvariantsStillEnforced) {
  // Duplicate priorities across chains: parse succeeds syntactically but
  // System validation rejects.
  EXPECT_THROW((void)parse_system(R"(
system s
chain c1 activation=periodic(10) deadline=10
  task t1 prio=1 wcet=1
chain c2 activation=periodic(10) deadline=10
  task t2 prio=1 wcet=1
)"),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(Json, WriterBasics) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("a");
  w.value(1);
  w.key("b");
  w.begin_array();
  w.value("x");
  w.value(true);
  w.null();
  w.end_array();
  w.key("c");
  w.value(2.5);
  w.end_object();
  EXPECT_EQ(os.str(), R"({"a":1,"b":["x",true,null],"c":2.5})");
}

TEST(Json, EscapesStrings) {
  std::ostringstream os;
  JsonWriter w(os);
  w.value(std::string("he said \"hi\"\n\tback\\slash"));
  EXPECT_EQ(os.str(), R"("he said \"hi\"\n\tback\\slash")");
}

TEST(Json, LatencyResultSerialization) {
  const System sys = case_studies::date17_case_study();
  const LatencyResult r = latency_analysis(sys, case_studies::kSigmaC);
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"wcl\":331"), std::string::npos);
  EXPECT_NE(json.find("\"K\":2"), std::string::npos);
  EXPECT_NE(json.find("\"schedulable\":false"), std::string::npos);
}

TEST(Json, DmmResultSerialization) {
  TwcaAnalyzer analyzer{case_studies::date17_case_study()};
  const DmmResult r = analyzer.dmm(case_studies::kSigmaC, 3);
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"k\":3"), std::string::npos);
  EXPECT_NE(json.find("\"dmm\":3"), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"bounded\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tables and histograms
// ---------------------------------------------------------------------------

TEST(Tables, RendersAligned) {
  TextTable t({"task chain", "WCL", "D"});
  t.add_row({"sigma_c", "331", "200"});
  t.add_row({"sigma_d", "175", "200"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| sigma_c"), std::string::npos);
  EXPECT_NE(s.find("| 331"), std::string::npos);
  EXPECT_NE(s.find("+--"), std::string::npos);
  // Header and 2 rows and 3 rules.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 6);
}

TEST(Tables, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), InvalidArgument);
}

TEST(Tables, Csv) {
  TextTable t({"name", "value"});
  t.add_row({"plain", "1"});
  t.add_row({"with,comma", "quote\"inside"});
  const std::string csv = t.render_csv();
  EXPECT_NE(csv.find("name,value\n"), std::string::npos);
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Histogram, ScalesAndLabels) {
  const std::string h = render_histogram({"0", "1", "2"}, {10, 5, 0}, 20);
  EXPECT_NE(h.find("0 | #################### 10"), std::string::npos);
  EXPECT_NE(h.find("1 | ########## 5"), std::string::npos);
  EXPECT_NE(h.find("2 |  0"), std::string::npos);
}

TEST(Histogram, RejectsSizeMismatch) {
  EXPECT_THROW(render_histogram({"a"}, {1, 2}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// System report
// ---------------------------------------------------------------------------

/// The report `wharf analyze` prints for `system` at horizons `ks`.
std::string standard_report(const System& system, std::vector<Count> ks = {}) {
  Engine engine;
  return render_report(system, engine.run(AnalysisRequest::standard(system, std::move(ks))));
}

TEST(Report, CaseStudyReport) {
  const std::string report = standard_report(
      case_studies::date17_case_study(case_studies::OverloadModel::kRareOverload), {3, 76});
  EXPECT_NE(report.find("sigma_c"), std::string::npos);
  EXPECT_NE(report.find("331"), std::string::npos);     // WCL sigma_c
  EXPECT_NE(report.find("166"), std::string::npos);     // WCL w/o overload
  EXPECT_NE(report.find("weakly hard"), std::string::npos);
  EXPECT_NE(report.find("always meets"), std::string::npos);  // sigma_d
  EXPECT_NE(report.find("dmm(76)"), std::string::npos);
  EXPECT_NE(report.find("Overload chains"), std::string::npos);
  EXPECT_NE(report.find("curve(700,15200,50000;35000)"), std::string::npos);
}

TEST(Report, DefaultHorizon) {
  const std::string report = standard_report(case_studies::date17_case_study());
  EXPECT_NE(report.find("dmm(10)"), std::string::npos);
}

TEST(Report, ChainWithoutDeadline) {
  const System sys = parse_system(R"(
system r
chain c activation=periodic(100)
  task t prio=1 wcet=5
)");
  const std::string report = standard_report(sys);
  EXPECT_NE(report.find("no deadline"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Gantt
// ---------------------------------------------------------------------------

TEST(Gantt, RendersSlices) {
  const System sys = parse_system(R"(
system g
chain hi activation=periodic(100) deadline=100
  task h prio=2 wcet=3
chain lo activation=periodic(100) deadline=100
  task l prio=1 wcet=5
)");
  sim::SimOptions options;
  options.record_trace = true;
  const sim::SimResult r = sim::simulate(sys, {{1}, {0}}, options);
  const std::string g = render_gantt(sys, r.trace);
  // lo runs [0,1), hi [1,4), lo [4,8).
  EXPECT_NE(g.find("hi.h"), std::string::npos);
  EXPECT_NE(g.find("lo.l"), std::string::npos);
  const auto lines = util::split(g, '\n');
  ASSERT_GE(lines.size(), 2u);
  EXPECT_NE(lines[0].find(".###...."), std::string::npos);  // hi row
  EXPECT_NE(lines[1].find("#...####"), std::string::npos);  // lo row
}

TEST(Gantt, CompressionFactor) {
  const System sys = parse_system(R"(
system g
chain c activation=periodic(100) deadline=100
  task t prio=1 wcet=40
)");
  sim::SimOptions options;
  options.record_trace = true;
  const sim::SimResult r = sim::simulate(sys, {{0}}, options);
  GanttOptions g;
  g.ticks_per_char = 10;
  const std::string out = render_gantt(sys, r.trace, g);
  EXPECT_NE(out.find("####"), std::string::npos);
  EXPECT_EQ(out.find("#####"), std::string::npos);  // exactly 4 chars at 10 ticks/char
}

}  // namespace
}  // namespace wharf::io
