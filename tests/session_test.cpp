// Tests for the session-oriented incremental Engine API
// (engine/session.hpp):
//
//  * delta semantics — every kind applies, batches are atomic, errors
//    are Statuses that leave the session untouched;
//  * the incrementality contract — for ANY random delta sequence
//    (including structural kinds), session query results are
//    bit-identical to a fresh one-shot Engine::run of the mutated
//    system, across jobs 1/4/16 and under a tiny cache budget
//    (eviction pressure);
//  * the acceptance telemetry — a 100-delta mutation sweep through one
//    Session performs strictly fewer busy-window solves than 100
//    one-shot Engine::run calls, with every answer equal;
//  * digest-table reuse across revisions and speculative candidates
//    (ModelDigests), and cross-session key soundness.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/case_studies.hpp"
#include "core/twca.hpp"
#include "engine/engine.hpp"
#include "engine/session.hpp"
#include "gen/random_systems.hpp"
#include "io/system_format.hpp"
#include "search/priority_search.hpp"

namespace wharf {
namespace {

using case_studies::date17_case_study;
using case_studies::OverloadModel;

constexpr std::size_t kBusyWindowStage =
    static_cast<std::size_t>(static_cast<int>(ArtifactStage::kBusyWindow));

System case_study() { return date17_case_study(OverloadModel::kRareOverload); }

/// Serialization-level equality of two reports' *answers* (diagnostics
/// deliberately excluded — the whole point of a session is that its
/// telemetry differs from a cold engine's).
void expect_same_answers(AnalysisReport a, AnalysisReport b, const std::string& what) {
  a.diagnostics = ReportDiagnostics{};
  b.diagnostics = ReportDiagnostics{};
  EXPECT_EQ(to_json(a), to_json(b)) << what;
}

/// The standard query list of the session's current model.
std::vector<Query> standard_queries(const System& system, std::vector<Count> ks) {
  return AnalysisRequest::standard(system, std::move(ks)).queries;
}

// ---------------------------------------------------------------------
// Delta semantics
// ---------------------------------------------------------------------

TEST(Session, PrioritySwapDeltaMatchesWithPriorities) {
  ArtifactStore store;
  Session session(case_study(), {}, store);
  const System base = session.system();

  // Swap the priorities of two tasks through the delta API...
  const std::string t1 = base.chain(0).name() + "." + base.chain(0).task(0).name;
  const std::string t2 = base.chain(1).name() + "." + base.chain(1).task(0).name;
  const Priority p1 = base.chain(0).task(0).priority;
  const Priority p2 = base.chain(1).task(0).priority;
  ASSERT_TRUE(session.apply({SetPriorityDelta{t1, p2}, SetPriorityDelta{t2, p1}}).is_ok());
  EXPECT_EQ(session.revision(), 1u);

  // ...and against the model API: identical serialized systems.
  std::vector<Priority> flat = base.flat_priorities();
  std::swap(flat[0], flat[static_cast<std::size_t>(base.chain(0).size())]);
  EXPECT_EQ(io::serialize_system(session.system()),
            io::serialize_system(base.with_priorities(flat)));
}

TEST(Session, EveryStructuralDeltaKindApplies) {
  ArtifactStore store;
  Session session(case_study(), {}, store);
  const std::string chain0 = session.system().chain(0).name();
  const std::string task0 = chain0 + "." + session.system().chain(0).task(0).name;

  ASSERT_TRUE(session.apply({SetWcetDelta{task0, 7}}).is_ok());
  EXPECT_EQ(session.system().chain(0).task(0).wcet, 7);

  ASSERT_TRUE(session.apply({SetDeadlineDelta{chain0, 555}}).is_ok());
  EXPECT_EQ(session.system().chain(0).deadline(), std::optional<Time>(555));
  ASSERT_TRUE(session.apply({SetDeadlineDelta{chain0, std::nullopt}}).is_ok());
  EXPECT_FALSE(session.system().chain(0).deadline().has_value());

  ASSERT_TRUE(session.apply({SetArrivalDelta{chain0, "periodic(1234)"}}).is_ok());
  EXPECT_EQ(session.system().chain(0).arrival().describe(), "periodic(1234)");

  const int before = session.system().size();
  const Chain extra = io::parse_chain(
      "chain extra kind=sync activation=periodic(5000) deadline=4000\n"
      "  task extra1 prio=99 wcet=3\n");
  ASSERT_TRUE(session.apply({AddChainDelta{extra}}).is_ok());
  EXPECT_EQ(session.system().size(), before + 1);
  ASSERT_TRUE(session.system().chain_index("extra").has_value());

  ASSERT_TRUE(session.apply({RemoveChainDelta{"extra"}}).is_ok());
  EXPECT_EQ(session.system().size(), before);
  EXPECT_FALSE(session.system().chain_index("extra").has_value());
  EXPECT_EQ(session.revision(), 6u);
  EXPECT_EQ(session.stats().deltas_applied, 6);
}

TEST(Session, InvalidBatchesAreAtomicStatusesNotThrows) {
  ArtifactStore store;
  Session session(case_study(), {}, store);
  const std::string before = io::serialize_system(session.system());
  const std::string task0 =
      session.system().chain(0).name() + "." + session.system().chain(0).task(0).name;

  // Unknown names -> not-found.
  EXPECT_EQ(session.apply({SetPriorityDelta{"nope.t", 1}}).code(), StatusCode::kNotFound);
  EXPECT_EQ(session.apply({SetWcetDelta{"sigma_c.nope", 1}}).code(), StatusCode::kNotFound);
  EXPECT_EQ(session.apply({RemoveChainDelta{"nope"}}).code(), StatusCode::kNotFound);
  // Undotted task reference -> invalid-argument.
  EXPECT_EQ(session.apply({SetPriorityDelta{"undotted", 1}}).code(),
            StatusCode::kInvalidArgument);
  // Unparsable arrival -> invalid-argument.
  EXPECT_EQ(session.apply({SetArrivalDelta{session.system().chain(0).name(), "bogus(1)"}}).code(),
            StatusCode::kInvalidArgument);
  // Duplicate priority across tasks -> model validation rejects.
  EXPECT_EQ(session.apply({SetPriorityDelta{task0, session.system().chain(1).task(0).priority}})
                .code(),
            StatusCode::kInvalidArgument);
  // A batch whose *last* delta fails must roll back the earlier ones.
  EXPECT_EQ(session.apply({SetWcetDelta{task0, 1}, RemoveChainDelta{"nope"}}).code(),
            StatusCode::kNotFound);

  EXPECT_EQ(session.revision(), 0u);
  EXPECT_EQ(io::serialize_system(session.system()), before);
  // And the untouched session still answers.
  const QueryResult result = session.query(LatencyQuery{session.system().chain(0).name()});
  EXPECT_TRUE(result.ok()) << result.status.to_string();
}

TEST(Session, SpeculateScoresHypotheticalWithoutMutating) {
  ArtifactStore store;
  Session session(case_study(), {}, store);
  const std::string before = io::serialize_system(session.system());
  const std::string task0 =
      session.system().chain(0).name() + "." + session.system().chain(0).task(0).name;

  Session hypothetical = session.speculate({SetWcetDelta{task0, 1}});
  EXPECT_NE(io::serialize_system(hypothetical.system()), before);
  EXPECT_EQ(io::serialize_system(session.system()), before);
  EXPECT_EQ(session.revision(), 0u);

  EXPECT_THROW((void)session.speculate({RemoveChainDelta{"nope"}}), InvalidArgument);
}

TEST(Session, DottedChainNamesResolveBySplitSearch) {
  // Chain names may contain '.'; the delta address "a.b.t1" must try
  // every split and find chain "a.b" / task "t1" (and priority search
  // over such a system must keep working — it candidates via deltas).
  const System sys = io::parse_system(
      "system dotted\n"
      "chain a.b kind=sync activation=periodic(100) deadline=90\n"
      "  task t1 prio=1 wcet=10\n"
      "  task t2 prio=2 wcet=5\n"
      "chain plain kind=sync activation=periodic(200) deadline=150\n"
      "  task p1 prio=3 wcet=20\n");
  ArtifactStore store;
  Session session(sys, {}, store);
  ASSERT_TRUE(session.apply({SetPriorityDelta{"a.b.t1", 2}, SetPriorityDelta{"a.b.t2", 1}})
                  .is_ok());
  EXPECT_EQ(session.system().chain(0).task(0).priority, 2);

  search::PipelineEvaluator pipeline_backed(sys, search::EvaluationSpec{5, {}}, {}, store, 1);
  search::ReferenceEvaluator reference(sys, search::EvaluationSpec{5, {}});
  const search::SearchResult got = search::random_search(pipeline_backed, 10, 3);
  const search::SearchResult want = search::random_search(reference, 10, 3);
  EXPECT_EQ(got.best_priorities, want.best_priorities);
  EXPECT_EQ(got.best_objective, want.best_objective);
}

TEST(Session, AmbiguousDottedReferenceIsRefusedNotGuessed) {
  // "a.b.c" resolves as chain "a" task "b.c" AND chain "a.b" task "c":
  // the delta must be refused, never applied to an arbitrary winner.
  const System sys = io::parse_system(
      "system ambiguous\n"
      "chain a kind=sync activation=periodic(100) deadline=90\n"
      "  task b.c prio=1 wcet=10\n"
      "chain a.b kind=sync activation=periodic(200) deadline=150\n"
      "  task c prio=2 wcet=20\n");
  ArtifactStore store;
  Session session(sys, {}, store);
  const Status refused = session.apply({SetPriorityDelta{"a.b.c", 9}});
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("ambiguous"), std::string::npos);
  EXPECT_EQ(session.revision(), 0u);
}

TEST(Session, StructuralApplyDetachesLiveSpeculativeSessions) {
  // A priority-only speculation shares the slice memo; a structural
  // apply() on the base must detach it so neither session can feed the
  // other stale-structure key fragments afterwards.
  ArtifactStore store;
  Session session(case_study(), {}, store);
  const std::string t1 =
      session.system().chain(0).name() + "." + session.system().chain(0).task(0).name;
  const std::string t2 =
      session.system().chain(1).name() + "." + session.system().chain(1).task(0).name;
  const Priority p1 = session.system().chain(0).task(0).priority;
  const Priority p2 = session.system().chain(1).task(0).priority;

  Session candidate =
      session.speculate({SetPriorityDelta{t1, p2}, SetPriorityDelta{t2, p1}});
  ASSERT_TRUE(session.apply({SetWcetDelta{t1, 1}}).is_ok());

  // The candidate (old structure) keeps answering consistently with a
  // fresh one-shot analysis of its own model...
  const std::vector<Query> old_queries = standard_queries(candidate.system(), {5});
  Engine reference;
  expect_same_answers(candidate.serve(old_queries),
                      reference.run(AnalysisRequest{candidate.system(), {}, old_queries}),
                      "old-structure candidate after structural apply");
  // ...and so does the mutated base, even though the candidate kept
  // (re)populating the previously shared memo.
  const std::vector<Query> new_queries = standard_queries(session.system(), {5});
  expect_same_answers(session.serve(new_queries),
                      reference.run(AnalysisRequest{session.system(), {}, new_queries}),
                      "new-structure base after structural apply");
}

TEST(Session, IsStructuralClassifiesDeltaKinds) {
  EXPECT_FALSE(is_structural(SetPriorityDelta{"a.t", 1}));
  EXPECT_TRUE(is_structural(SetWcetDelta{"a.t", 1}));
  EXPECT_TRUE(is_structural(SetDeadlineDelta{"a", 10}));
  EXPECT_TRUE(is_structural(SetArrivalDelta{"a", "periodic(10)"}));
  EXPECT_TRUE(is_structural(RemoveChainDelta{"a"}));
}

TEST(Session, RemovedChainQueriesFailWithNotFound) {
  ArtifactStore store;
  Session session(case_study(), {}, store);
  const std::string victim = session.system().chain(0).name();
  ASSERT_TRUE(session.apply({RemoveChainDelta{victim}}).is_ok());
  const QueryResult result = session.query(LatencyQuery{victim});
  EXPECT_EQ(result.status.code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------
// Bit-identical to the one-shot path
// ---------------------------------------------------------------------

/// Applies a random delta batch to `session` (mirroring nothing — the
/// reference analyzes session.system() afterwards).  Returns a
/// description for failure messages.  Names are copied out before
/// apply(): the session.system() reference dies with the old revision.
std::string random_batch(Session& session, std::mt19937_64& rng, int& add_counter) {
  const System& sys = session.system();
  std::uniform_int_distribution<int> kind_pick(0, 5);
  const auto chain_of = [&](int c) { return sys.chain(c).name(); };
  const auto task_of = [&](int c, int t) {
    return sys.chain(c).name() + "." + sys.chain(c).task(t).name;
  };
  std::uniform_int_distribution<int> chain_pick(0, sys.size() - 1);

  switch (kind_pick(rng)) {
    case 0: {  // pairwise priority swap (the search neighborhood move)
      std::vector<Priority> flat = sys.flat_priorities();
      std::uniform_int_distribution<std::size_t> pick(0, flat.size() - 1);
      const std::size_t i = pick(rng);
      const std::size_t j = pick(rng);
      std::vector<std::string> names;
      for (int c = 0; c < sys.size(); ++c) {
        for (int t = 0; t < sys.chain(c).size(); ++t) names.push_back(task_of(c, t));
      }
      const std::string what = "swap " + names[i] + "<->" + names[j];
      const Status s = session.apply({SetPriorityDelta{names[i], flat[j]},
                                      SetPriorityDelta{names[j], flat[i]}});
      EXPECT_TRUE(s.is_ok()) << s.to_string();
      return what;
    }
    case 1: {  // wcet nudge
      const int c = chain_pick(rng);
      std::uniform_int_distribution<int> task_pick(0, sys.chain(c).size() - 1);
      const int t = task_pick(rng);
      std::uniform_int_distribution<Time> wcet(1, 30);
      const std::string name = task_of(c, t);
      const Status s = session.apply({SetWcetDelta{name, wcet(rng)}});
      EXPECT_TRUE(s.is_ok()) << s.to_string();
      return "wcet " + name;
    }
    case 2: {  // deadline change on a regular chain
      const std::vector<int>& regular = sys.regular_indices();
      std::uniform_int_distribution<std::size_t> pick(0, regular.size() - 1);
      const std::string name = chain_of(regular[pick(rng)]);
      std::uniform_int_distribution<Time> deadline(50, 400);
      const Status s = session.apply({SetDeadlineDelta{name, deadline(rng)}});
      EXPECT_TRUE(s.is_ok()) << s.to_string();
      return "deadline " + name;
    }
    case 3: {  // arrival period change (regular chains: an overload
               // chain made frequent would leave the paper's regime and
               // blow up combination enumeration)
      const std::vector<int>& regular = sys.regular_indices();
      std::uniform_int_distribution<std::size_t> reg_pick(0, regular.size() - 1);
      const std::string name = chain_of(regular[reg_pick(rng)]);
      std::uniform_int_distribution<Time> period(80, 1000);
      const Status s = session.apply(
          {SetArrivalDelta{name, "periodic(" + std::to_string(period(rng)) + ")"}});
      EXPECT_TRUE(s.is_ok()) << s.to_string();
      return "arrival " + name;
    }
    case 4: {  // add a low-rate chain with fresh name/priority
      Priority top = 0;
      for (const Priority p : sys.flat_priorities()) top = std::max(top, p);
      const std::string name = "added" + std::to_string(++add_counter);
      const Chain chain = io::parse_chain(
          "chain " + name + " kind=sync activation=periodic(2000) deadline=1500\n  task " +
          name + "_t prio=" + std::to_string(top + 1) + " wcet=5\n");
      const Status s = session.apply({AddChainDelta{chain}});
      EXPECT_TRUE(s.is_ok()) << s.to_string();
      return "add " + name;
    }
    default: {  // remove (keep at least two chains)
      if (sys.size() <= 2) return random_batch(session, rng, add_counter);
      const std::string name = chain_of(chain_pick(rng));
      const Status s = session.apply({RemoveChainDelta{name}});
      EXPECT_TRUE(s.is_ok()) << s.to_string();
      return "remove " + name;
    }
  }
}

TEST(Session, RandomDeltaSequencesMatchOneShotAcrossJobsAndEviction) {
  // The satellite property: for a random delta sequence, Session query
  // results are bit-identical to a fresh one-shot Engine::run of the
  // mutated system — across jobs 1/4/16, with the session's store under
  // a tiny byte budget (artifacts are evicted and recomputed mid-sweep).
  gen::RandomSystemSpec spec;
  spec.min_chains = 3;
  spec.max_chains = 4;
  spec.overload_chains = 1;
  std::mt19937_64 rng(2026);

  for (const int jobs : {1, 4, 16}) {
    const System base = gen::random_system(spec, rng, "delta_property");
    ArtifactStore tiny{/*byte_budget=*/4096};
    Session session(base, {}, tiny, jobs);
    Engine reference{EngineOptions{jobs, EngineOptions{}.cache_bytes}};
    int add_counter = 0;

    for (int step = 0; step < 8; ++step) {
      const std::string what = random_batch(session, rng, add_counter);
      const std::vector<Query> queries = standard_queries(session.system(), {5});
      AnalysisReport via_session = session.serve(queries);
      AnalysisReport one_shot =
          reference.run(AnalysisRequest{session.system(), {}, queries});
      expect_same_answers(std::move(via_session), std::move(one_shot),
                          "jobs=" + std::to_string(jobs) + " step " + std::to_string(step) +
                              " (" + what + ")");
    }
    // The tiny budget really was under pressure.
    EXPECT_LE(tiny.stats().resident_bytes, 4096u);
  }
}

TEST(Session, HundredDeltaSweepSolvesStrictlyFewerBusyWindows) {
  // The acceptance bar: a 100-delta mutation sweep through one Session
  // performs strictly fewer busy-window solves than 100 one-shot
  // Engine::run calls, while every query result stays bit-identical.
  gen::RandomSystemSpec spec;
  spec.min_chains = 8;
  spec.max_chains = 8;
  spec.min_tasks = 1;
  spec.max_tasks = 2;
  spec.utilization = 0.5;
  spec.overload_chains = 1;
  std::mt19937_64 rng(42);
  const System base = gen::random_system(spec, rng, "sweep");

  ArtifactStore store;
  Session session(base, {}, store);
  std::size_t one_shot_busy_window_solves = 0;

  std::vector<std::string> names;
  for (const Chain& chain : base.chains()) {
    for (const Task& task : chain.tasks()) names.push_back(chain.name() + "." + task.name);
  }
  std::uniform_int_distribution<std::size_t> pick(0, names.size() - 1);

  for (int step = 0; step < 100; ++step) {
    const std::vector<Priority> flat = session.system().flat_priorities();
    const std::size_t i = pick(rng);
    const std::size_t j = pick(rng);
    ASSERT_TRUE(session
                    .apply({SetPriorityDelta{names[i], flat[j]},
                            SetPriorityDelta{names[j], flat[i]}})
                    .is_ok());

    const std::vector<Query> queries = standard_queries(session.system(), {10});
    AnalysisReport via_session = session.serve(queries);

    Engine one_shot;  // fresh store: the pre-session client behavior
    AnalysisReport cold = one_shot.run(AnalysisRequest{session.system(), {}, queries});
    one_shot_busy_window_solves +=
        cold.diagnostics.stages[kBusyWindowStage].misses +
        cold.diagnostics.stages[kBusyWindowStage].shared;

    expect_same_answers(std::move(via_session), std::move(cold),
                        "step " + std::to_string(step));
  }

  const SessionStats stats = session.stats();
  const std::size_t session_solves =
      stats.stages[kBusyWindowStage].misses + stats.stages[kBusyWindowStage].shared;
  EXPECT_LT(session_solves, one_shot_busy_window_solves);
  // The sweep's reuse is structural, not marginal: a swap touches ~2 of
  // 8 chains, so the session re-solves well under half of what the
  // one-shot path does.
  EXPECT_LT(session_solves * 2, one_shot_busy_window_solves);
  EXPECT_EQ(stats.revision, 100u);
  EXPECT_EQ(stats.deltas_applied, 200);
}

// ---------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------

TEST(Session, OpenSessionSharesTheEngineStore) {
  Engine engine;
  Session first = engine.open_session(case_study());
  const AnalysisReport cold = first.serve(standard_queries(first.system(), {10}));
  EXPECT_GT(cold.diagnostics.cache_misses, 0u);

  // A second session over the same system starts warm off the shared
  // store: every artifact hits.
  Session second = engine.open_session(case_study());
  const AnalysisReport warm = second.serve(standard_queries(second.system(), {10}));
  EXPECT_EQ(warm.diagnostics.cache_misses, 0u);
  EXPECT_GT(warm.diagnostics.cache_hits, 0u);
  EXPECT_TRUE(warm.diagnostics.cache_hit);
}

TEST(Session, EngineRunIsAnEphemeralSessionAdapter) {
  // Engine::run and a hand-rolled session produce identical reports
  // (diagnostics included — both are one fresh epoch over one store).
  const AnalysisRequest request = AnalysisRequest::standard(case_study(), {3, 76});

  Engine engine;
  const AnalysisReport via_engine = engine.run(request);

  ArtifactStore store;
  Session session(request.system, request.options, store);
  const AnalysisReport via_session = session.serve(request.queries);

  EXPECT_EQ(to_json(via_engine), to_json(via_session));
}

TEST(Session, ServeCollectsPerCallDiagnostics) {
  ArtifactStore store;
  Session session(case_study(), {}, store);
  const std::vector<Query> queries = standard_queries(session.system(), {10});

  const AnalysisReport first = session.serve(queries);
  EXPECT_GT(first.diagnostics.cache_misses, 0u);
  EXPECT_EQ(first.diagnostics.cache_hits, 0u);

  // The same queries again: the pipeline memo already holds every
  // artifact, so the second report's *own* diagnostics are empty rather
  // than a rolling total.
  const AnalysisReport second = session.serve(queries);
  EXPECT_EQ(second.diagnostics.cache_misses, 0u);
  EXPECT_EQ(second.diagnostics.cache_hits, 0u);

  // After a delta, the re-keyed slices re-resolve and prior artifacts
  // classify as hits.
  const System& sys = session.system();
  const std::string t1 = sys.chain(0).name() + "." + sys.chain(0).task(0).name;
  const std::string t2 = sys.chain(1).name() + "." + sys.chain(1).task(0).name;
  const Priority p1 = sys.chain(0).task(0).priority;
  const Priority p2 = sys.chain(1).task(0).priority;
  ASSERT_TRUE(session.apply({SetPriorityDelta{t1, p2}, SetPriorityDelta{t2, p1}}).is_ok());
  const AnalysisReport third = session.serve(standard_queries(session.system(), {10}));
  EXPECT_GT(third.diagnostics.cache_hits, 0u);

  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.queries_served,
            static_cast<long long>(queries.size()) * 2 +
                static_cast<long long>(standard_queries(session.system(), {10}).size()));
}

// ---------------------------------------------------------------------
// Slice memo
// ---------------------------------------------------------------------

TEST(Session, SliceMemoReusesUntouchedChainFragmentsAcrossRevisions) {
  ArtifactStore store;
  Session session(case_study(), {}, store);
  (void)session.serve(standard_queries(session.system(), {10}));
  const DigestStats cold = session.stats().slices;
  EXPECT_GT(cold.misses, 0u);

  // A priority swap leaves most chains untouched: the derived digest
  // table carries their digests over.
  const System& sys = session.system();
  const std::string t1 = sys.chain(0).name() + "." + sys.chain(0).task(0).name;
  const std::string t2 = sys.chain(1).name() + "." + sys.chain(1).task(0).name;
  const Priority p1 = sys.chain(0).task(0).priority;
  const Priority p2 = sys.chain(1).task(0).priority;
  ASSERT_TRUE(session.apply({SetPriorityDelta{t1, p2}, SetPriorityDelta{t2, p1}}).is_ok());
  (void)session.serve(standard_queries(session.system(), {10}));

  const DigestStats warm = session.stats().slices;
  EXPECT_GT(warm.hits, cold.hits);

  // A structural delta rebuilds the table: every digest is a miss.
  ASSERT_TRUE(session.apply({SetWcetDelta{t1, 1}}).is_ok());
  (void)session.serve(standard_queries(session.system(), {10}));
  EXPECT_GT(session.stats().slices.misses, warm.misses);
}

/// Two-chain system of the cross-session overload-slice regression:
/// target `b` (tail b2) and overload chain `a`, whose active segments
/// w.r.t. `b` depend on b's tail priority, not only on its minimum.
System tail_priority_system(Priority b2, Priority a2) {
  return io::parse_system(
      "system tailprio\n"
      "chain b kind=sync activation=periodic(1000) deadline=300\n"
      "  task b1 prio=1 wcet=100\n"
      "  task b2 prio=" + std::to_string(b2) + " wcet=100\n"
      "chain a kind=sync activation=sporadic(1500) overload\n"
      "  task a1 prio=10 wcet=150\n"
      "  task a2 prio=" + std::to_string(a2) + " wcet=50\n"
      "  task a3 prio=8 wcet=100\n");
}

TEST(Session, OverloadKeysTrackTheTargetTailPriorityAcrossSessions) {
  // Session s1 moves b's tail priority (its minimum stays b1's): the
  // overload key must change with it.  A key that read only the
  // minimum priority filed s1's re-keyed overload artifacts under the
  // old slice, and a second session whose system shares that stale
  // slice (s2) was then served them: dmm 8 instead of 10.
  ArtifactStore store;
  const int b = 0;
  Session s1(tail_priority_system(5, 4), {}, store);
  EXPECT_EQ(s1.dmm(b, 10).dmm, TwcaAnalyzer(s1.system()).dmm(b, 10).dmm);
  ASSERT_TRUE(s1.apply({SetPriorityDelta{"b.b2", 3}}).is_ok());
  EXPECT_EQ(s1.dmm(b, 10).dmm, TwcaAnalyzer(s1.system()).dmm(b, 10).dmm);

  Session s2(tail_priority_system(3, 2), {}, store);
  const Count want = TwcaAnalyzer(s2.system()).dmm(b, 10).dmm;
  EXPECT_EQ(want, 10);
  EXPECT_EQ(s2.dmm(b, 10).dmm, want);
}

TEST(Session, EvaluatorSharesSliceMemoAcrossCandidates) {
  // Candidate digest tables derive from the neighbourhood's anchor:
  // scoring a neighborhood through the pipeline evaluator reuses the
  // untouched chains' digests, and the reuse is visible in
  // EvaluatorStats.
  ArtifactStore store;
  search::PipelineEvaluator evaluator(case_study(), search::EvaluationSpec{10, {}}, {}, store,
                                      1);
  search::HillClimbOptions options;
  options.restarts = 1;
  options.max_steps = 2;
  options.seed = 5;
  (void)search::hill_climb(evaluator, options);

  const search::EvaluatorStats stats = evaluator.stats();
  EXPECT_GT(stats.slices.hits, 0u);
  EXPECT_GT(stats.slices.hits, stats.slices.misses);
}

}  // namespace
}  // namespace wharf
