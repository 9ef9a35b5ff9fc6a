// Property-based tests on randomized systems: the analytic bounds must
// dominate every simulated behaviour, the ablation baseline must never
// beat the improved analysis, solver/enumeration variants must agree,
// and the structural artifact keys must match their canonical encodings
// (the key audit).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/arrival.hpp"
#include "core/busy_window.hpp"
#include "core/case_studies.hpp"
#include "core/model_slice.hpp"
#include "core/twca.hpp"
#include "engine/engine.hpp"
#include "engine/session.hpp"
#include "gen/random_systems.hpp"
#include "io/system_format.hpp"
#include "oracles/busy_window_reference.hpp"
#include "oracles/packing_reference.hpp"
#include "sim/arrival_sequence.hpp"
#include "sim/busy_windows.hpp"
#include "sim/simulator.hpp"
#include "tests/support/canonical_keys.hpp"

namespace wharf {
namespace {

gen::RandomSystemSpec property_spec(bool with_async) {
  gen::RandomSystemSpec spec;
  spec.min_chains = 2;
  spec.max_chains = 4;
  spec.min_tasks = 1;
  spec.max_tasks = 5;
  spec.utilization = 0.6;
  spec.overload_chains = 1;
  spec.overload_gap = 20'000;
  spec.overload_wcet_max = 25;
  spec.async_fraction = with_async ? 0.4 : 0.0;
  return spec;
}

/// Builds adversarial arrivals: all chains released at t=0, periodic
/// chains at full rate, overload chains as dense as legal.
std::vector<std::vector<Time>> adversarial_arrivals(const System& sys, Time horizon) {
  std::vector<std::vector<Time>> arrivals;
  for (int c = 0; c < sys.size(); ++c) {
    arrivals.push_back(sim::greedy_arrivals(sys.chain(c).arrival(), 0, horizon));
  }
  return arrivals;
}

class RandomSystemProperties : public ::testing::TestWithParam<int> {};

TEST_P(RandomSystemProperties, SimulatedLatencyNeverExceedsWcl) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 1000003 + 17);
  const System sys = gen::random_system(property_spec(GetParam() % 3 == 0), rng);
  TwcaAnalyzer analyzer{sys};

  const Time horizon = 60'000;
  const auto arrivals = adversarial_arrivals(sys, horizon);
  const sim::SimResult sim = sim::simulate(sys, arrivals);

  for (int c : sys.regular_indices()) {
    const LatencyResult& bound = analyzer.latency(c);
    if (!bound.bounded) continue;  // analysis gives no bound; nothing to check
    EXPECT_LE(sim.chains[static_cast<std::size_t>(c)].max_latency, bound.wcl)
        << "chain " << sys.chain(c).name() << " seed " << GetParam();
  }
}

TEST_P(RandomSystemProperties, SimulatedWindowMissesNeverExceedDmm) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 999983 + 3);
  const System sys = gen::random_system(property_spec(false), rng);
  TwcaAnalyzer analyzer{sys};

  const Time horizon = 100'000;
  const auto arrivals = adversarial_arrivals(sys, horizon);
  const sim::SimResult sim = sim::simulate(sys, arrivals);

  for (int c : sys.regular_indices()) {
    const LatencyResult& latency = analyzer.latency(c);
    if (!latency.bounded) continue;
    // The paper's standing assumption: at most one overload activation
    // per busy window.  Check it *exactly* on the observed run (Def. 6
    // busy windows) instead of a conservative proxy.
    const auto windows = sim::observed_busy_windows(sim.chains[static_cast<std::size_t>(c)]);
    bool assumption_holds = true;
    for (int o : sys.overload_indices()) {
      assumption_holds =
          assumption_holds &&
          sim::at_most_one_arrival_per_window(windows, arrivals[static_cast<std::size_t>(o)]);
    }
    if (!assumption_holds) continue;
    for (Count k : {1, 5, 10}) {
      const DmmResult bound = analyzer.dmm(c, k);
      const Count observed = sim.chains[static_cast<std::size_t>(c)].max_misses_in_window(k);
      EXPECT_LE(observed, bound.dmm)
          << "chain " << sys.chain(c).name() << " k=" << k << " seed " << GetParam();
    }
  }
}

TEST_P(RandomSystemProperties, NaiveLatencyNeverBeatsImprovedForSyncSystems) {
  // Restricted to fully synchronous systems on purpose: for a deferred
  // *asynchronous* chain, Eq. (1) line 4 counts the header segment both
  // in eta*C_header and inside the per-segment sum, so the segment-aware
  // analysis is not uniformly tighter than the all-arbitrary baseline.
  // For synchronous interferers the deferred term (one critical segment)
  // is always <= eta * C_a, hence the dominance below.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7907 + 29);
  const System sys = gen::random_system(property_spec(false), rng);

  AnalysisOptions naive;
  naive.naive_arbitrary = true;
  for (int c : sys.regular_indices()) {
    const LatencyResult improved = latency_analysis(sys, c);
    const LatencyResult coarse = latency_analysis(sys, c, naive);
    if (!coarse.bounded) continue;  // naive may diverge where improved does not
    ASSERT_TRUE(improved.bounded) << "improved must be bounded whenever naive is";
    EXPECT_LE(improved.wcl, coarse.wcl) << "chain " << sys.chain(c).name();
  }
}

TEST_P(RandomSystemProperties, DmmMonotoneInK) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 11);
  const System sys = gen::random_system(property_spec(false), rng);
  TwcaAnalyzer analyzer{sys};
  for (int c : sys.regular_indices()) {
    Count prev = 0;
    bool first = true;
    for (Count k : {1, 2, 3, 5, 8, 13, 21}) {
      const Count v = analyzer.dmm(c, k).dmm;
      if (!first) {
        EXPECT_GE(v, prev) << "chain " << sys.chain(c).name() << " k=" << k;
      }
      prev = v;
      first = false;
    }
  }
}

TEST_P(RandomSystemProperties, DmmMonotoneAndCappedAtKViaEngine) {
  // The satellite property: over random systems, dmm(k) is monotone
  // non-decreasing in k and never exceeds k when cap_at_k is set —
  // checked through the Engine facade, cross-validated against the
  // analyzer core.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const System sys = gen::random_system(property_spec(GetParam() % 2 == 0), rng);

  std::vector<Count> ks;
  for (Count k = 1; k <= 24; ++k) ks.push_back(k);

  TwcaOptions options;
  ASSERT_TRUE(options.cap_at_k);  // the default the property relies on

  AnalysisRequest request{sys, options, {}};
  for (int c : sys.regular_indices()) {
    if (sys.chain(c).deadline().has_value()) {
      request.queries.push_back(DmmQuery{sys.chain(c).name(), ks});
    }
  }
  Engine engine;
  const AnalysisReport report = engine.run(request);
  ASSERT_TRUE(report.ok()) << report.worst_status().to_string();

  const TwcaAnalyzer analyzer{sys};
  for (const QueryResult& result : report.results) {
    const auto& answer = std::get<DmmAnswer>(result.answer);
    ASSERT_EQ(answer.curve.size(), ks.size());
    Count prev = 0;
    for (std::size_t i = 0; i < ks.size(); ++i) {
      const DmmResult& r = answer.curve[i];
      EXPECT_EQ(r.k, ks[i]);
      EXPECT_GE(r.dmm, 0) << "chain " << answer.chain << " k=" << r.k;
      EXPECT_LE(r.dmm, r.k) << "cap_at_k violated on chain " << answer.chain;
      EXPECT_GE(r.dmm, prev) << "non-monotone on chain " << answer.chain << " at k=" << r.k;
      prev = r.dmm;
      // The facade must agree with the analyzer core bit for bit.
      const auto chain = sys.chain_index(answer.chain);
      ASSERT_TRUE(chain.has_value());
      EXPECT_EQ(r.dmm, analyzer.dmm(*chain, ks[i]).dmm);
    }
  }
}

TEST_P(RandomSystemProperties, MinimalAndFullEnumerationAgree) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 4241 + 5);
  gen::RandomSystemSpec spec = property_spec(false);
  spec.overload_chains = 2;
  const System sys = gen::random_system(spec, rng);

  // Production keeps only the minimal combinations; the oracle packs
  // every unschedulable one.
  TwcaAnalyzer a{sys};
  for (int c : sys.regular_indices()) {
    for (Count k : {1, 5, 20}) {
      const DmmResult ra = a.dmm(c, k);
      const DmmResult rb = reference::dmm(sys, c, k, {}, {.full_combination_set = true});
      EXPECT_EQ(ra.dmm, rb.dmm) << "chain " << sys.chain(c).name() << " k=" << k;
      EXPECT_EQ(ra.status, rb.status);
    }
  }
}

TEST_P(RandomSystemProperties, DfsAndIlpPackersAgree) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 3571 + 23);
  gen::RandomSystemSpec spec = property_spec(false);
  spec.overload_chains = 2;
  const System sys = gen::random_system(spec, rng);

  TwcaAnalyzer ilp_an{sys};
  for (int c : sys.regular_indices()) {
    for (Count k : {1, 7, 30}) {
      EXPECT_EQ(ilp_an.dmm(c, k).dmm, reference::dmm(sys, c, k, {}, {.dfs_packer = true}).dmm)
          << "chain " << sys.chain(c).name() << " k=" << k;
    }
  }
}

TEST_P(RandomSystemProperties, DmmZeroIffScheduable) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 2713 + 7);
  const System sys = gen::random_system(property_spec(false), rng);
  TwcaAnalyzer analyzer{sys};
  for (int c : sys.regular_indices()) {
    const LatencyResult& lat = analyzer.latency(c);
    if (!lat.bounded) continue;
    const DmmResult r = analyzer.dmm(c, 10);
    if (lat.schedulable) {
      EXPECT_EQ(r.status, DmmStatus::kAlwaysMeets);
      EXPECT_EQ(r.dmm, 0);
    } else {
      EXPECT_NE(r.status, DmmStatus::kAlwaysMeets);
    }
  }
}

TEST_P(RandomSystemProperties, SerializationRoundTripPreservesAnalysis) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 1019 + 2);
  const System sys = gen::random_system(property_spec(GetParam() % 2 == 1), rng);
  TwcaAnalyzer original{sys};
  TwcaAnalyzer reparsed{io::parse_system(io::serialize_system(sys))};
  for (int c : sys.regular_indices()) {
    const LatencyResult& a = original.latency(c);
    const LatencyResult& b = reparsed.latency(c);
    EXPECT_EQ(a.bounded, b.bounded);
    if (a.bounded) {
      EXPECT_EQ(a.wcl, b.wcl);
      EXPECT_EQ(a.K, b.K);
    }
  }
}

TEST_P(RandomSystemProperties, ExactCriterionDominatesEq5) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 90001 + 47);
  gen::RandomSystemSpec spec = property_spec(false);
  spec.deadline_factor = 0.8;  // tight deadlines make combinations matter
  const System sys = gen::random_system(spec, rng);

  TwcaOptions eq5_opts;
  TwcaOptions eq3_opts;
  eq3_opts.criterion = SchedulabilityCriterion::kExactEq3;
  TwcaAnalyzer eq5{sys, eq5_opts};
  TwcaAnalyzer eq3{sys, eq3_opts};
  for (int c : sys.regular_indices()) {
    for (Count k : {1, 5, 15}) {
      const DmmResult a = eq5.dmm(c, k);
      const DmmResult b = eq3.dmm(c, k);
      if (a.status == DmmStatus::kBounded && b.status == DmmStatus::kBounded) {
        EXPECT_GE(b.slack, a.slack) << "chain " << sys.chain(c).name() << " k=" << k;
        EXPECT_LE(b.dmm, a.dmm) << "chain " << sys.chain(c).name() << " k=" << k;
      }
    }
  }
}

TEST_P(RandomSystemProperties, SimulatorIsWorkConservingAndTraceValid) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 80021 + 19);
  const System sys = gen::random_system(property_spec(GetParam() % 2 == 0), rng);

  const Time horizon = 30'000;
  const auto arrivals = adversarial_arrivals(sys, horizon);
  sim::SimOptions options;
  options.record_trace = true;
  const sim::SimResult r = sim::simulate(sys, arrivals, options);

  // (1) Trace slices never overlap (a uniprocessor runs one job at a
  // time) and are within [0, makespan].
  Time prev_end = 0;
  Time busy_ticks = 0;
  for (const sim::ExecSlice& s : r.trace) {
    EXPECT_GE(s.begin, prev_end) << "overlapping slices, seed " << GetParam();
    EXPECT_LT(s.begin, s.end);
    EXPECT_LE(s.end, r.makespan);
    prev_end = s.begin;  // slices are emitted in chronological order
    prev_end = s.end;
    busy_ticks += s.end - s.begin;
  }

  // (2) Work conservation: total executed time equals total released
  // demand (every activation runs to completion; WCETs are exact).
  Time released = 0;
  for (int c = 0; c < sys.size(); ++c) {
    released += static_cast<Time>(arrivals[static_cast<std::size_t>(c)].size()) *
                sys.chain(c).total_wcet();
  }
  EXPECT_EQ(busy_ticks, released) << "seed " << GetParam();

  // (3) Every activation yields exactly one completed instance.
  for (int c = 0; c < sys.size(); ++c) {
    EXPECT_EQ(r.chains[static_cast<std::size_t>(c)].completed,
              static_cast<Count>(arrivals[static_cast<std::size_t>(c)].size()));
  }
}

TEST_P(RandomSystemProperties, LatencyDominatesEveryInstanceNotJustMax) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 52361 + 41);
  const System sys = gen::random_system(property_spec(false), rng);
  TwcaAnalyzer analyzer{sys};

  // Randomized (non-greedy) arrivals exercise non-critical instants.
  std::vector<std::vector<Time>> arrivals;
  for (int c = 0; c < sys.size(); ++c) {
    arrivals.push_back(sim::random_arrivals(sys.chain(c).arrival(), 0, 40'000, 300.0,
                                            static_cast<std::uint64_t>(GetParam()) * 31 +
                                                static_cast<std::uint64_t>(c)));
  }
  const sim::SimResult r = sim::simulate(sys, arrivals);
  for (int c : sys.regular_indices()) {
    const LatencyResult& bound = analyzer.latency(c);
    if (!bound.bounded) continue;
    for (const sim::InstanceRecord& rec :
         r.chains[static_cast<std::size_t>(c)].instances) {
      ASSERT_TRUE(rec.completed);
      EXPECT_LE(rec.latency(), bound.wcl)
          << "chain " << sys.chain(c).name() << " instance " << rec.index;
    }
  }
}

TEST_P(RandomSystemProperties, GranularCacheNeverServesStaleArtifacts) {
  // The incremental-invalidation property: warm an engine on system S,
  // mutate one pair of task priorities, and re-analyze warm.  Every
  // answer must be bit-identical to a cold analysis of the mutated
  // system — a slice key that is too coarse (missing a real dependency)
  // would serve stale artifacts exactly here.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const System sys = gen::random_system(property_spec(GetParam() % 2 == 0), rng);

  Engine engine;
  (void)engine.run(AnalysisRequest::standard(sys));

  std::vector<Priority> priorities = sys.flat_priorities();
  std::uniform_int_distribution<std::size_t> pick(0, priorities.size() - 1);
  const std::size_t i = pick(rng);
  const std::size_t j = pick(rng);
  std::swap(priorities[i], priorities[j]);
  const System mutated = sys.with_priorities(priorities);

  const AnalysisReport warm = engine.run(AnalysisRequest::standard(mutated, {1, 5, 10}));
  Engine cold_engine;
  const AnalysisReport cold = cold_engine.run(AnalysisRequest::standard(mutated, {1, 5, 10}));

  auto answers_json = [](const AnalysisReport& report) {
    AnalysisReport stripped = report;
    stripped.diagnostics = ReportDiagnostics{};
    return to_json(stripped);
  };
  EXPECT_EQ(answers_json(warm), answers_json(cold)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSystemProperties, ::testing::Range(0, 24));

// ---------------------------------------------------------------------
// Key audit: every stage key a session derives incrementally equals the
// key of the same system built fresh, and keys are equal exactly when
// the canonical encodings of tests/support/canonical_keys.hpp are.
// ---------------------------------------------------------------------

constexpr int kArrivalFamilies = 6;

/// One arrival model per library family, scaled to `period`.
ArrivalModelPtr arrival_of_family(int family, Time period) {
  switch (family) {
    case 0: return periodic(period);
    case 1: return periodic_jitter(period, period / 4);
    case 2: return sporadic(period);
    case 3: return delta_curve({period / 2, period + period / 2}, period);
    case 4:
      return delta_curve_with_plus({period / 2, period + period / 2}, period,
                                   {2 * period, 3 * period}, 2 * period);
    default: return sporadic_burst(2 * period, 2, period / 4);
  }
}

/// A random system whose regular chains cycle through every arrival
/// family, with asynchronous chains and one or two overload chains.
System audit_system(int seed) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 7919 + 3);
  gen::RandomSystemSpec spec = property_spec(/*with_async=*/true);
  spec.max_chains = 5;
  spec.overload_chains = 1 + seed % 2;
  const System base = gen::random_system(spec, rng, "audit");
  std::vector<Chain> chains;
  int family = seed;
  for (const Chain& chain : base.chains()) {
    Chain::Spec chain_spec = chain.spec();
    if (!chain.is_overload()) {
      chain_spec.arrival = arrival_of_family(family++ % kArrivalFamilies,
                                             chain.arrival().delta_minus(2));
    }
    chains.emplace_back(std::move(chain_spec));
  }
  return System(base.name(), std::move(chains));
}

/// A batch of 1-3 random priority swaps against `system`'s current
/// assignment, as session deltas.
std::vector<Delta> random_swaps(const System& system, std::mt19937_64& rng) {
  std::vector<std::string> names;
  for (const Chain& chain : system.chains()) {
    for (const Task& task : chain.tasks()) names.push_back(chain.name() + "." + task.name);
  }
  std::vector<Priority> priorities = system.flat_priorities();
  std::uniform_int_distribution<std::size_t> pick(0, priorities.size() - 1);
  const int swaps = 1 + static_cast<int>(rng() % 3);
  for (int s = 0; s < swaps; ++s) std::swap(priorities[pick(rng)], priorities[pick(rng)]);
  std::vector<Delta> deltas;
  const std::vector<Priority> before = system.flat_priorities();
  for (std::size_t i = 0; i < priorities.size(); ++i) {
    if (priorities[i] != before[i]) deltas.push_back(SetPriorityDelta{names[i], priorities[i]});
  }
  return deltas;
}

/// Equal canonical encodings <=> equal digests, over everything recorded.
struct KeyAudit {
  std::unordered_map<std::string, ArtifactKey> by_text;
  std::unordered_map<ArtifactKey, std::string, ArtifactKey::Hash> by_key;
  long long records = 0;

  void record(const std::string& text, const ArtifactKey& key) {
    ++records;
    const auto [text_it, new_text] = by_text.emplace(text, key);
    EXPECT_EQ(text_it->second, key) << "equal encodings, different digests:\n" << text;
    const auto [key_it, new_key] = by_key.emplace(key, text);
    EXPECT_EQ(key_it->second, text) << "equal digests " << key << ", different encodings";
  }
};

struct AuditCoverage {
  long long derived_hits = 0;         ///< digests carried over by derivations
  long long tail_not_min_targets = 0;  ///< targets whose tail is not their lowest task
};

/// Checks `session`'s (incrementally derived) table against a fresh
/// build and records every stage key against its canonical encoding.
void audit_session(const Session& session, const TwcaOptions& options, KeyAudit& audit,
                   AuditCoverage& coverage) {
  const System& sys = session.system();
  const ModelDigests& derived = session.digests();
  const ModelDigests fresh(sys);
  coverage.derived_hits += static_cast<long long>(derived.stats().hits);
  for (int b = 0; b < sys.size(); ++b) {
    EXPECT_EQ(derived.content(b), fresh.content(b)) << "content of " << b;
    for (int a = 0; a < sys.size(); ++a) {
      if (a == b) continue;
      EXPECT_EQ(derived.interference(a, b), fresh.interference(a, b)) << a << " -> " << b;
      EXPECT_EQ(derived.busy_interference(a, b), fresh.busy_interference(a, b))
          << a << " -> " << b;
      if (sys.chain(a).is_overload()) {
        EXPECT_EQ(derived.overload(a, b), fresh.overload(a, b)) << a << " -> " << b;
      }
    }
    if (sys.chain(b).lowest_priority_index() != sys.chain(b).size() - 1) {
      ++coverage.tail_not_min_targets;
    }
    namespace canonical = testsupport::canonical;
    audit.record(canonical::interference_key(sys, b), interference_key(sys, derived, b));
    for (const bool without_overload : {false, true}) {
      audit.record(canonical::busy_window_key(sys, b, options.analysis, without_overload),
                   busy_window_key(sys, derived, b, options.analysis, without_overload));
    }
    const ArtifactKey overload =
        overload_key(sys, derived, b, options,
                     busy_window_key(sys, derived, b, options.analysis, false));
    audit.record(canonical::overload_key(sys, b, options), overload);
    for (const Count k : {Count{1}, Count{7}}) {
      audit.record(canonical::dmm_key(sys, b, k, options), dmm_key(k, options, overload));
    }
  }
}

TEST(KeyAudit, DerivedDigestsMatchFreshBuildsAndCanonicalEncodings) {
  KeyAudit audit;
  AuditCoverage coverage;
  for (int seed = 0; seed < 200; ++seed) {
    TwcaOptions options;
    options.analysis.naive_arbitrary = seed % 3 == 0;
    // Vary an overload-key field so the audit records keys under both
    // of its values.
    options.criterion = seed % 4 != 0 ? SchedulabilityCriterion::kSufficientEq5
                                      : SchedulabilityCriterion::kExactEq3;
    ArtifactStore store;
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) + 17);
    Session current(audit_system(seed), options, store);
    audit_session(current, options, audit, coverage);
    // A random chain of priority deltas mixing speculate() (the child
    // becomes the next parent) and apply().
    for (int step = 0; step < 8; ++step) {
      const std::vector<Delta> deltas = random_swaps(current.system(), rng);
      if (rng() % 2 == 0) {
        current = current.speculate(deltas);
      } else {
        ASSERT_TRUE(current.apply(deltas).is_ok());
      }
      audit_session(current, options, audit, coverage);
    }
  }
  // The audit exercised what it claims to: incremental derivations,
  // tails that are not the lowest-priority task, and collisions of
  // equal encodings across systems and revisions.
  EXPECT_GT(coverage.derived_hits, 0);
  EXPECT_GT(coverage.tail_not_min_targets, 0);
  EXPECT_LT(static_cast<long long>(audit.by_text.size()), audit.records);
}

// ---------------------------------------------------------------------------
// Candidate construction: System::with_priorities copies the chains and
// re-prioritizes them in place.  It must equal rebuilding every chain
// from its Spec (the construction it replaced) in every observable, and
// refuse bad inputs with the same text.
// ---------------------------------------------------------------------------

/// `base` re-prioritized the long way: every chain rebuilt from its Spec,
/// then the system from the chains.
System spec_rebuilt(const System& base, const std::vector<Priority>& priorities) {
  std::vector<Chain> chains;
  std::size_t next = 0;
  for (const Chain& chain : base.chains()) {
    Chain::Spec spec = chain.spec();
    for (Task& task : spec.tasks) task.priority = priorities.at(next++);
    chains.emplace_back(std::move(spec));
  }
  return System(base.name(), std::move(chains));
}

/// The duplicate-priority text a first-come scan in flat order reports:
/// the first task whose priority an earlier task holds, and that
/// earlier task.
std::string first_come_duplicate(const System& base, const std::vector<Priority>& priorities) {
  std::unordered_map<Priority, std::string> owner;
  std::size_t next = 0;
  for (const Chain& chain : base.chains()) {
    for (const Task& task : chain.tasks()) {
      const Priority p = priorities[next++];
      const auto [it, inserted] = owner.emplace(p, task.name);
      if (!inserted) {
        return "duplicate priority " + std::to_string(p) + " on tasks '" + it->second +
               "' and '" + task.name + "' (the paper assumes a total priority order)";
      }
    }
  }
  return "";
}

/// An error's text without the " [check at file:line]" location suffix.
std::string message_text(const std::exception& e) {
  const std::string what = e.what();
  return what.substr(0, what.rfind(" ["));
}

void expect_same_model(const System& got, const System& want, const std::string& what) {
  EXPECT_EQ(got.flat_priorities(), want.flat_priorities()) << what;
  EXPECT_EQ(io::serialize_system(got), io::serialize_system(want)) << what;
  EXPECT_EQ(got.task_count(), want.task_count()) << what;
  EXPECT_EQ(got.overload_indices(), want.overload_indices()) << what;
  EXPECT_EQ(got.regular_indices(), want.regular_indices()) << what;
  ASSERT_EQ(got.size(), want.size()) << what;
  for (int c = 0; c < got.size(); ++c) {
    const Chain& g = got.chain(c);
    const Chain& w = want.chain(c);
    ASSERT_EQ(g.size(), w.size()) << what;
    for (int t = 0; t < g.size(); ++t) {
      EXPECT_EQ(g.task(t).name, w.task(t).name) << what;
      EXPECT_EQ(g.task(t).priority, w.task(t).priority) << what;
      EXPECT_EQ(g.task(t).wcet, w.task(t).wcet) << what;
    }
    EXPECT_EQ(g.min_priority(), w.min_priority()) << what << ", chain " << c;
    EXPECT_EQ(g.lowest_priority_index(), w.lowest_priority_index()) << what << ", chain " << c;
    EXPECT_EQ(g.total_wcet(), w.total_wcet()) << what;
    EXPECT_EQ(g.arrival_ptr(), w.arrival_ptr()) << what;
  }
  const ModelDigests g(got);
  const ModelDigests w(want);
  for (int b = 0; b < got.size(); ++b) {
    EXPECT_EQ(g.content(b), w.content(b)) << what << ", chain " << b;
    for (int a = 0; a < got.size(); ++a) {
      if (a == b) continue;
      EXPECT_EQ(g.interference(a, b), w.interference(a, b)) << what;
      EXPECT_EQ(g.busy_interference(a, b), w.busy_interference(a, b)) << what;
      if (got.chain(a).is_overload()) {
        EXPECT_EQ(g.overload(a, b), w.overload(a, b)) << what;
      }
    }
  }
}

TEST(CandidateConstruction, WithPrioritiesEqualsTheSpecRebuild) {
  int refusals = 0;
  for (int seed = 0; seed < 200; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 7919 + 3);
    const System base = gen::random_system(property_spec(seed % 2 == 0), rng);
    const int n = base.task_count();
    const std::string at = "seed " + std::to_string(seed);
    for (int round = 0; round < 4; ++round) {
      // A permutation of the base priorities...
      const std::vector<Priority> permuted = gen::shuffled_priorities(n, rng);
      expect_same_model(base.with_priorities(permuted), spec_rebuilt(base, permuted), at);
      // ...and distinct values that are not one.
      std::vector<Priority> spread = permuted;
      for (Priority& p : spread) p = 3 * p + 7;
      expect_same_model(base.with_priorities(spread), spec_rebuilt(base, spread), at);

      // Duplicates (one or, on odd rounds, up to three clashing pairs, so
      // which clash is reported first matters): both constructions refuse
      // with the first-come text.
      if (n < 2) continue;
      std::vector<Priority> clashing = permuted;
      for (int pair = 0; pair < (round % 2 == 1 ? 3 : 1); ++pair) {
        const auto i = static_cast<std::size_t>(rng() % static_cast<std::uint64_t>(n));
        auto j = static_cast<std::size_t>(rng() % static_cast<std::uint64_t>(n - 1));
        if (j >= i) ++j;
        clashing[j] = clashing[i];
      }
      const std::string expected = first_come_duplicate(base, clashing);
      ASSERT_FALSE(expected.empty());
      try {
        (void)base.with_priorities(clashing);
        ADD_FAILURE() << at << ": duplicate priorities accepted";
      } catch (const InvalidArgument& e) {
        EXPECT_EQ(message_text(e), expected) << at;
        try {
          (void)spec_rebuilt(base, clashing);
          ADD_FAILURE() << at << ": the constructor accepted duplicate priorities";
        } catch (const InvalidArgument& rebuilt) {
          EXPECT_EQ(std::string(e.what()), rebuilt.what()) << at;
        }
        ++refusals;
      }
    }

    // Wrong arity, either way.
    for (const int size : {n - 1, n + 1}) {
      try {
        (void)base.with_priorities(std::vector<Priority>(static_cast<std::size_t>(size), 1));
        ADD_FAILURE() << at << ": wrong arity accepted";
      } catch (const InvalidArgument& e) {
        EXPECT_EQ(message_text(e), "expected " + std::to_string(n) + " priorities, got " +
                                       std::to_string(size))
            << at;
      }
    }
  }
  EXPECT_GE(refusals, 200);
}

// ---------------------------------------------------------------------------
// Priority-shuffle sweep on the case study (Experiment 2 soundness):
// whatever the priority assignment, the simulator must respect the bounds.
// ---------------------------------------------------------------------------

class ShuffledCaseStudy : public ::testing::TestWithParam<int> {};

TEST_P(ShuffledCaseStudy, SimulationRespectsAnalysisBounds) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 524287 + 1);
  const System sys = gen::with_random_priorities(
      case_studies::date17_case_study(case_studies::OverloadModel::kRareOverload), rng);
  TwcaAnalyzer analyzer{sys};

  const Time horizon = 80'000;
  std::vector<std::vector<Time>> arrivals;
  for (int c = 0; c < sys.size(); ++c) {
    arrivals.push_back(sim::greedy_arrivals(sys.chain(c).arrival(), 0, horizon));
  }
  const sim::SimResult sim = sim::simulate(sys, arrivals);

  for (int c : sys.regular_indices()) {
    const LatencyResult& lat = analyzer.latency(c);
    if (!lat.bounded) continue;
    EXPECT_LE(sim.chains[static_cast<std::size_t>(c)].max_latency, lat.wcl)
        << "chain " << sys.chain(c).name() << " seed " << GetParam();

    // Windowed misses respect the DMM whenever the one-overload-per-busy-
    // window assumption holds on the observed run (checked exactly via
    // Def. 6 busy windows).
    const auto windows = sim::observed_busy_windows(sim.chains[static_cast<std::size_t>(c)]);
    bool assumption_holds = true;
    for (int o : sys.overload_indices()) {
      assumption_holds =
          assumption_holds &&
          sim::at_most_one_arrival_per_window(windows, arrivals[static_cast<std::size_t>(o)]);
    }
    if (assumption_holds) {
      for (Count k : {1, 5, 10}) {
        EXPECT_LE(sim.chains[static_cast<std::size_t>(c)].max_misses_in_window(k),
                  analyzer.dmm(c, k).dmm)
            << "chain " << sys.chain(c).name() << " k=" << k << " seed " << GetParam();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShuffledCaseStudy, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// K_b search near saturation: the divergence certificate that stops the
// search early must classify exactly like the capped reference search.
// ---------------------------------------------------------------------------

/// An arrival model of a random family whose long-run rate is one
/// activation per `period`.
ArrivalModelPtr random_family(Time period, std::mt19937_64& rng) {
  const auto draw = [&rng](Time lo, Time hi) {
    return std::uniform_int_distribution<Time>(lo, hi)(rng);
  };
  switch (std::uniform_int_distribution<int>(0, 4)(rng)) {
    case 0:
      return periodic(period);
    case 1:
      return periodic_jitter(period, draw(0, 2 * period), draw(1, period));
    case 2:
      return sporadic(period);
    case 3: {
      std::vector<Time> prefix;
      Time d = draw(0, period / 2);
      for (Time i = draw(1, 4); i > 0; --i) {
        prefix.push_back(d);
        d += draw(0, period / 2);
      }
      return delta_curve(std::move(prefix), period);
    }
    default: {
      const Count burst = draw(2, 3);
      return sporadic_burst(burst * period, burst, draw(1, period / burst));
    }
  }
}

/// Two to four regular chains of every arrival family (some
/// asynchronous) at total utilization in [0.97, 1.03], plus one rare
/// overload chain, under random priorities.
System near_saturation_system(std::mt19937_64& rng, int index) {
  const auto draw = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const int regular = draw(2, 4);
  const double utilization = std::uniform_real_distribution<double>(0.97, 1.03)(rng);
  const std::vector<double> shares = gen::uunifast(regular, utilization, rng);
  const Time periods[] = {200, 300, 400, 500, 800, 1000};
  std::vector<Chain::Spec> specs;
  for (int c = 0; c < regular; ++c) {
    Chain::Spec s;
    s.name = "chain" + std::to_string(c);
    s.kind = draw(0, 9) < 3 ? ChainKind::kAsynchronous : ChainKind::kSynchronous;
    const Time period = periods[draw(0, 5)];
    s.arrival = random_family(period, rng);
    s.deadline = period;
    const int tasks = draw(1, 3);
    Time budget = std::max<Time>(
        tasks, std::llround(shares[static_cast<std::size_t>(c)] * static_cast<double>(period)));
    for (int t = 0; t < tasks; ++t) {
      const Time rest = tasks - t - 1;  // tasks still to fill, one tick at least
      const Time wcet = rest == 0 ? budget
                                  : std::clamp<Time>(budget / (rest + 1) + draw(-2, 2), 1,
                                                     budget - rest);
      budget -= wcet;
      s.tasks.push_back(Task{"c" + std::to_string(c) + "t" + std::to_string(t), 0, wcet});
    }
    specs.push_back(std::move(s));
  }
  Chain::Spec overload;
  overload.name = "overload";
  overload.arrival = sporadic(5'000);
  overload.overload = true;
  overload.tasks = {Task{"o", 0, draw(1, 30)}};
  specs.push_back(std::move(overload));

  int task_count = 0;
  for (const Chain::Spec& s : specs) task_count += static_cast<int>(s.tasks.size());
  const std::vector<Priority> priorities = gen::shuffled_priorities(task_count, rng);
  std::size_t next = 0;
  std::vector<Chain> chains;
  for (Chain::Spec& s : specs) {
    for (Task& t : s.tasks) t.priority = priorities[next++];
    chains.emplace_back(std::move(s));
  }
  return System("near" + std::to_string(index), std::move(chains));
}

/// One latency analysis of the differential, through both paths.
struct Differential {
  std::string where;
  LatencyResult flat;
  LatencyResult ref;
};

/// System `index` of the differential, analyzed at cap 20'000 for one
/// random (target, full or overload-free) pair per naive_arbitrary value:
/// a capped reference search costs tens of milliseconds.
std::vector<Differential> near_saturation_differential(int index) {
  std::mt19937_64 rng(4242 + static_cast<std::uint64_t>(index));
  const System sys = near_saturation_system(rng, index);
  const std::vector<int> targets = sys.regular_indices();
  std::vector<Differential> out;
  for (const bool naive : {false, true}) {
    AnalysisOptions options;
    options.max_busy_windows = 20'000;
    options.naive_arbitrary = naive;
    const int target =
        targets[std::uniform_int_distribution<std::size_t>(0, targets.size() - 1)(rng)];
    const bool overload_free = std::bernoulli_distribution(0.5)(rng);
    const std::vector<int> exclude = overload_free ? sys.overload_indices() : std::vector<int>{};
    std::string where = io::serialize_system(sys) + "target " + std::to_string(target);
    where += naive ? " naive" : "";
    where += overload_free ? " overload-free" : "";
    out.push_back(Differential{std::move(where), latency_analysis(sys, target, options, exclude),
                               reference::latency_analysis(sys, target, options, exclude)});
  }
  return out;
}

TEST(KbSearchNearSaturation, ClassificationMatchesTheCappedReference) {
  constexpr int kSystems = 200;
  constexpr int kThreads = 4;
  std::vector<std::vector<Differential>> runs(kSystems);
  {
    std::atomic<int> next{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&runs, &next] {
        for (int i = next++; i < kSystems; i = next++) {
          runs[static_cast<std::size_t>(i)] = near_saturation_differential(i);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }

  int bounded = 0;
  int certified = 0;
  for (const std::vector<Differential>& run : runs) {
    for (const Differential& d : run) {
      SCOPED_TRACE(d.where);
      ASSERT_EQ(d.flat.bounded, d.ref.bounded) << d.flat.reason << " | " << d.ref.reason;
      if (d.flat.bounded) {
        ++bounded;
        EXPECT_EQ(d.flat.reason, d.ref.reason);
        EXPECT_EQ(d.flat.K, d.ref.K);
        EXPECT_EQ(d.flat.busy_times, d.ref.busy_times);
        EXPECT_EQ(d.flat.wcl, d.ref.wcl);
        EXPECT_EQ(d.flat.worst_q, d.ref.worst_q);
        EXPECT_EQ(d.flat.misses_per_window, d.ref.misses_per_window);
        EXPECT_EQ(d.flat.schedulable, d.ref.schedulable);
      } else {
        EXPECT_TRUE(d.flat.busy_times.empty());
        if (d.flat.reason.rfind("busy window never closes", 0) == 0) ++certified;
      }
    }
  }
  // Both sides of the line must be well represented, or the battery
  // proves nothing about the certificate.
  EXPECT_GE(bounded, 100);
  EXPECT_GE(certified, 100);
}

}  // namespace
}  // namespace wharf
