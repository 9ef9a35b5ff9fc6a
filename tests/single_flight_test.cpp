// Concurrency tests for the store-level single-flight table
// (ArtifactStore::resolve): N concurrent callers of one absent key must
// run exactly one computation — one miss, N-1 shared joins — with the
// counts exact (not scheduling-dependent), because the compute callback
// can hold its flight open until every sibling has joined.  The same
// guarantee is asserted end-to-end through concurrent Engine::run calls
// via a gated arrival model.  These tests run under the ASan/UBSan CI job
// (WHARF_SANITIZE) like the rest of the suite.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/arrival.hpp"
#include "engine/artifact_store.hpp"
#include "engine/engine.hpp"
#include "util/worker_pool.hpp"

namespace wharf {
namespace {

constexpr std::size_t kIlpStage = static_cast<std::size_t>(static_cast<int>(ArtifactStage::kIlp));
constexpr std::size_t kDmmStage =
    static_cast<std::size_t>(static_cast<int>(ArtifactStage::kDmmCurve));

std::pair<std::shared_ptr<const void>, std::size_t> payload(int value) {
  return {std::make_shared<const int>(value), sizeof(int)};
}

std::size_t ilp_flights_shared(const ArtifactStore& store) {
  return store.stats().stage[kIlpStage].flights_shared;
}

TEST(SingleFlight, ExactlyOneComputeAndNMinusOneShares) {
  ArtifactStore store;
  constexpr int kThreads = 4;
  std::atomic<int> computes{0};
  std::array<ArtifactStore::ResolveSource, kThreads> sources{};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const ArtifactStore::Resolved resolved = store.resolve(ArtifactStage::kIlp, "key", [&] {
        ++computes;
        // Hold the flight open until every other thread has joined it:
        // the 1-miss/N-1-shared split below is exact, not a race.
        while (ilp_flights_shared(store) < kThreads - 1) std::this_thread::yield();
        return payload(42);
      });
      sources[static_cast<std::size_t>(t)] = resolved.source;
      EXPECT_EQ(*static_cast<const int*>(resolved.value.get()), 42);
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(computes.load(), 1);
  int computed = 0;
  int shared = 0;
  for (const ArtifactStore::ResolveSource source : sources) {
    computed += source == ArtifactStore::ResolveSource::kComputed;
    shared += source == ArtifactStore::ResolveSource::kShared;
  }
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(shared, kThreads - 1);
  const ArtifactStore::Stats stats = store.stats();
  EXPECT_EQ(stats.stage[kIlpStage].insertions, 1u);
  EXPECT_EQ(stats.stage[kIlpStage].flights_shared, static_cast<std::size_t>(kThreads - 1));
}

TEST(SingleFlight, ResidentArtifactNeverOpensAFlight) {
  ArtifactStore store;
  store.insert(ArtifactStage::kIlp, "key", payload(7).first, 16);
  const ArtifactStore::Resolved resolved = store.resolve(ArtifactStage::kIlp, "key", [&] {
    ADD_FAILURE() << "compute must not run for a resident artifact";
    return payload(0);
  });
  EXPECT_EQ(resolved.source, ArtifactStore::ResolveSource::kResident);
  EXPECT_EQ(*static_cast<const int*>(resolved.value.get()), 7);
  EXPECT_EQ(ilp_flights_shared(store), 0u);
}

TEST(SingleFlight, SequentialResolveComputesThenFindsResident) {
  ArtifactStore store;
  const auto first = store.resolve(ArtifactStage::kIlp, "key", [&] { return payload(3); });
  EXPECT_EQ(first.source, ArtifactStore::ResolveSource::kComputed);
  EXPECT_EQ(first.weight, sizeof(int));
  const auto second = store.resolve(ArtifactStage::kIlp, "key", [&] { return payload(99); });
  EXPECT_EQ(second.source, ArtifactStore::ResolveSource::kResident);
  EXPECT_EQ(*static_cast<const int*>(second.value.get()), 3);
}

TEST(SingleFlight, ComputeErrorReachesEveryWaiterAndRetiresTheFlight) {
  ArtifactStore store;
  std::atomic<bool> flight_open{false};
  std::atomic<int> failures{0};

  std::thread owner([&] {
    EXPECT_THROW(
        (void)store.resolve(ArtifactStage::kIlp, "key",
                            [&]() -> std::pair<std::shared_ptr<const void>, std::size_t> {
                              flight_open = true;
                              while (ilp_flights_shared(store) < 1) std::this_thread::yield();
                              throw std::runtime_error("boom");
                            }),
        std::runtime_error);
    ++failures;
  });
  std::thread waiter([&] {
    // Join only once the owner's flight is provably open, so this
    // thread deterministically shares the failing computation.
    while (!flight_open) std::this_thread::yield();
    EXPECT_THROW((void)store.resolve(ArtifactStage::kIlp, "key", [&] { return payload(1); }),
                 std::runtime_error);
    ++failures;
  });
  owner.join();
  waiter.join();
  EXPECT_EQ(failures.load(), 2);

  // The flight retired with its error: a later resolve computes afresh.
  const auto retry = store.resolve(ArtifactStage::kIlp, "key", [&] { return payload(5); });
  EXPECT_EQ(retry.source, ArtifactStore::ResolveSource::kComputed);
  EXPECT_EQ(*static_cast<const int*>(retry.value.get()), 5);
}

// ---------------------------------------------------------------------------
// End-to-end: N concurrent engine requests of the same candidate
// ---------------------------------------------------------------------------

/// Periodic arrival whose first curve query blocks on `gate`: installing
/// it in a chain lets a test hold the *first* dmm computation open (the
/// flight owner is the only caller that ever computes) until every
/// sibling request has joined that flight.
class GatedPeriodic final : public ArrivalModel {
 public:
  GatedPeriodic(Time period, std::function<void()> gate)
      : inner_(periodic(period)), gate_(std::move(gate)) {}

  Count eta_plus(Time window) const override {
    wait();
    return inner_->eta_plus(window);
  }
  Count eta_minus(Time window) const override {
    wait();
    return inner_->eta_minus(window);
  }
  Time delta_minus(Count q) const override {
    wait();
    return inner_->delta_minus(q);
  }
  Time delta_plus(Count q) const override {
    wait();
    return inner_->delta_plus(q);
  }
  double rate_upper() const override { return inner_->rate_upper(); }
  std::string describe() const override { return inner_->describe(); }

 private:
  void wait() const { std::call_once(once_, gate_); }

  ArrivalModelPtr inner_;
  std::function<void()> gate_;
  mutable std::once_flag once_;
};

TEST(SingleFlight, BatchSiblingsRecordOneMissAndNMinusOneSharedInDiagnostics) {
  constexpr int kRequests = 4;
  Engine engine{EngineOptions{/*jobs=*/kRequests, EngineOptions{}.cache_bytes}};

  // The gate holds the first (and only) dmm computation open until the
  // other kRequests - 1 sibling requests joined its flight.
  Chain::Spec c;
  c.name = "c";
  c.arrival = std::make_shared<GatedPeriodic>(100, [&engine] {
    while (engine.store_stats().stage[kDmmStage].flights_shared <
           static_cast<std::size_t>(kRequests - 1)) {
      std::this_thread::yield();
    }
  });
  c.deadline = 90;
  c.tasks = {Task{"t", 1, 10}};
  const System sys("gated", {Chain(std::move(c))});

  const AnalysisRequest request{sys, {}, {DmmQuery{"c", {5}}}};
  std::vector<AnalysisReport> reports(kRequests);
  util::parallel_for_index(reports.size(), kRequests,
                           [&](std::size_t i) { reports[i] = engine.run(request); });
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(kRequests));

  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t shared = 0;
  for (const AnalysisReport& report : reports) {
    ASSERT_TRUE(report.results[0].ok()) << report.results[0].status.to_string();
    const StageDiagnostics& dmm = report.diagnostics.stages[kDmmStage];
    lookups += dmm.lookups;
    hits += dmm.hits;
    misses += dmm.misses;
    shared += dmm.shared;
    // Every sibling gets the identical answer.
    const auto& answer = std::get<DmmAnswer>(report.results[0].answer);
    const auto& expected = std::get<DmmAnswer>(reports.front().results[0].answer);
    EXPECT_EQ(answer.curve.front().dmm, expected.curve.front().dmm);
    EXPECT_EQ(answer.curve.front().status, expected.curve.front().status);
  }
  EXPECT_EQ(lookups, static_cast<std::size_t>(kRequests));
  EXPECT_EQ(hits, 0u);
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(shared, static_cast<std::size_t>(kRequests - 1));
  EXPECT_EQ(engine.store_stats().stage[kDmmStage].flights_shared,
            static_cast<std::size_t>(kRequests - 1));
}

}  // namespace
}  // namespace wharf
