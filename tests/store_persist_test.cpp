// The persistence battery for engine/store_persist.{hpp,cpp}: the
// round-trip property (save → load → re-analyze is bit-identical with
// ZERO re-solves, across jobs values and under a tiny byte budget), the
// corruption contract (every flipped byte and every truncation point of
// a snapshot — header, string table, records, footer — degrades to a
// clean cold start: OK Status, records_skipped > 0, never a crash; run
// under ASan/UBSan in CI), the version-mismatch case (distinguishable
// from corruption by reason), and the crash-safety contract (a save
// that dies mid-write via the fail_after_bytes hook leaves the previous
// snapshot loadable — the atomic write-temp-then-rename promise).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/case_studies.hpp"
#include "engine/engine.hpp"
#include "engine/session.hpp"
#include "engine/store_persist.hpp"
#include "gen/random_systems.hpp"
#include "tests/support/serve_client.hpp"

namespace wharf {
namespace {

using testsupport::results_of;

constexpr std::size_t kBusyWindowStage =
    static_cast<std::size_t>(static_cast<int>(ArtifactStage::kBusyWindow));

/// A scratch directory with automatic cleanup (the snapshot plus any
/// leftover temp files a failed save may have produced).
struct TempDir {
  std::string path;
  TempDir() {
    char name[] = "/tmp/wharf_persist_test_XXXXXX";
    const char* made = ::mkdtemp(name);
    EXPECT_NE(made, nullptr);
    path = made == nullptr ? "" : made;
  }
  ~TempDir() {
    if (path.empty()) return;
    std::remove(store_snapshot_path(path).c_str());
    ::rmdir(path.c_str());
  }
};

/// Deterministic workload: random systems plus priority shuffles of the
/// first one (maximum artifact sharing, like a design-space sweep).
std::vector<System> workload(std::uint64_t seed, int systems = 3) {
  std::mt19937_64 rng(seed);
  gen::RandomSystemSpec spec;
  spec.min_chains = 2;
  spec.max_chains = 3;
  spec.min_tasks = 2;
  spec.max_tasks = 3;
  spec.utilization = 0.6;
  std::vector<System> out;
  out.push_back(gen::random_system(spec, rng, "persist_base"));
  for (int i = 1; i < systems; ++i) out.push_back(gen::with_random_priorities(out.front(), rng));
  return out;
}

std::size_t insertions(const ArtifactStore::Stats& stats) {
  std::size_t total = 0;
  for (const ArtifactStore::StageStats& s : stats.stage) total += s.insertions;
  return total;
}

/// Runs the workload and returns the answers-only payload per request.
std::vector<std::string> run_workload(Engine& engine, const std::vector<System>& systems) {
  std::vector<std::string> answers;
  for (const System& system : systems) {
    answers.push_back(results_of(to_json(engine.run(AnalysisRequest::standard(system, {3, 8})))));
  }
  return answers;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------
// Round trip
// ---------------------------------------------------------------------

TEST(StorePersist, RoundTripIsBitIdenticalWithZeroResolves) {
  const std::vector<System> systems = workload(11);
  for (const int jobs : {1, 4, 16}) {
    TempDir dir;
    EngineOptions options;
    options.jobs = jobs;
    options.store_dir = dir.path;

    Engine writer{options};
    const std::vector<std::string> cold = run_workload(writer, systems);
    const StoreSaveResult saved = writer.persist();
    ASSERT_TRUE(saved.status.is_ok()) << saved.status.to_string();
    EXPECT_GT(saved.records_written, 0u);
    EXPECT_GT(saved.bytes_written, 0u);

    Engine reader{options};
    EXPECT_EQ(reader.persistence_stats().persisted_artifacts, saved.records_written);
    EXPECT_EQ(reader.persistence_stats().load_skipped_corrupt, 0u);
    const ArtifactStore::Stats before = reader.store_stats();
    const std::vector<std::string> warm = run_workload(reader, systems);

    // The property: identical answers, and the warm replay resolved
    // every artifact from the snapshot.
    EXPECT_EQ(warm, cold) << "jobs=" << jobs;
    EXPECT_EQ(insertions(reader.store_stats()) - insertions(before), 0u) << "jobs=" << jobs;
  }
}

TEST(StorePersist, RoundTripUnderTinyBudgetStaysCorrect) {
  // A budget far below the workload's artifact weight: the loaded store
  // must re-account weights and keep evicting correctly, and answers
  // must stay identical (the cache is an optimization, never semantics).
  const std::vector<System> systems = workload(12);
  TempDir dir;
  EngineOptions options;
  options.cache_bytes = 4096;
  options.store_dir = dir.path;

  Engine writer{options};
  const std::vector<std::string> cold = run_workload(writer, systems);
  const StoreSaveResult saved = writer.persist();
  ASSERT_TRUE(saved.status.is_ok()) << saved.status.to_string();

  Engine reader{options};
  const ArtifactStore::Stats loaded = reader.store_stats();
  EXPECT_LE(loaded.resident_bytes, options.cache_bytes);
  EXPECT_EQ(run_workload(reader, systems), cold);
  EXPECT_LE(reader.store_stats().resident_bytes, options.cache_bytes);
}

TEST(StorePersist, LoadedWeightsMatchRemeasurement) {
  // Weights are not stored; load() re-measures via weight_of().  A
  // fresh store loaded from the snapshot must account exactly the same
  // resident weight a second loaded store does (determinism), and the
  // entry count must match what the writer persisted.
  const std::vector<System> systems = workload(13);
  TempDir dir;
  EngineOptions options;
  options.store_dir = dir.path;
  Engine writer{options};
  (void)run_workload(writer, systems);
  const StoreSaveResult saved = writer.persist();
  ASSERT_TRUE(saved.status.is_ok());

  ArtifactStore a;
  ArtifactStore b;
  const StoreLoadResult la = a.load(store_snapshot_path(dir.path));
  const StoreLoadResult lb = b.load(store_snapshot_path(dir.path));
  EXPECT_EQ(la.records_loaded, saved.records_written);
  EXPECT_EQ(lb.records_loaded, saved.records_written);
  EXPECT_EQ(a.stats().resident_entries, saved.records_written);
  EXPECT_GT(a.stats().resident_bytes, 0u);
  EXPECT_EQ(a.stats().resident_bytes, b.stats().resident_bytes);
}

// ---------------------------------------------------------------------
// Pinned bytes
// ---------------------------------------------------------------------

/// A checked-in format-3 snapshot: the store one jobs=1 Engine builds
/// for pinned_request().  Every other test round-trips a file against
/// the build that wrote it; this one fails when a layout change moves a
/// byte.  Regenerate it only together with a kStoreFormatVersion bump.
std::string pinned_snapshot_path() {
  const std::string here = __FILE__;
  return here.substr(0, here.find_last_of('/')) + "/data/date17_store_v3.snapshot";
}

AnalysisRequest pinned_request() {
  return AnalysisRequest::standard(
      case_studies::date17_case_study(case_studies::OverloadModel::kRareOverload), {3, 76});
}

TEST(StorePersist, SnapshotBytesArePinned) {
  ASSERT_EQ(kStoreFormatVersion, 3u);
  const std::string pinned = read_file(pinned_snapshot_path());
  ASSERT_GT(pinned.size(), 32u) << pinned_snapshot_path();

  // Saving the same store writes exactly the pinned bytes...
  TempDir cold_dir;
  EngineOptions cold_options;
  cold_options.store_dir = cold_dir.path;
  Engine writer{cold_options};
  const std::string cold = results_of(to_json(writer.run(pinned_request())));
  ASSERT_TRUE(writer.persist().status.is_ok());
  EXPECT_EQ(read_file(store_snapshot_path(cold_dir.path)), pinned);

  // ...a store loaded from them saves them back unchanged...
  ArtifactStore loaded;
  EXPECT_GT(loaded.load(pinned_snapshot_path()).records_loaded, 0u);
  TempDir resaved;
  ASSERT_TRUE(loaded.save(store_snapshot_path(resaved.path)).status.is_ok());
  EXPECT_EQ(read_file(store_snapshot_path(resaved.path)), pinned);

  // ...and an engine warmed from them answers bit-identically without
  // resolving a single artifact.
  TempDir warm_dir;
  write_file(store_snapshot_path(warm_dir.path), pinned);
  EngineOptions warm_options;
  warm_options.store_dir = warm_dir.path;
  Engine reader{warm_options};
  EXPECT_EQ(reader.persistence_stats().load_skipped_corrupt, 0u);
  const ArtifactStore::Stats before = reader.store_stats();
  EXPECT_EQ(results_of(to_json(reader.run(pinned_request()))), cold);
  EXPECT_EQ(insertions(reader.store_stats()) - insertions(before), 0u);
}

TEST(StorePersist, MissingFileIsCleanCold) {
  TempDir dir;
  ArtifactStore store;
  const StoreLoadResult loaded = store.load(store_snapshot_path(dir.path));
  EXPECT_TRUE(loaded.status.is_ok());
  EXPECT_TRUE(loaded.cold);
  EXPECT_EQ(loaded.records_loaded, 0u);
  EXPECT_EQ(loaded.records_skipped, 0u);  // absence is not corruption
}

// ---------------------------------------------------------------------
// Corruption
// ---------------------------------------------------------------------

/// Builds one pristine snapshot and returns its bytes.
std::string pristine_snapshot(const std::string& dir) {
  EngineOptions options;
  options.store_dir = dir;
  Engine writer{options};
  const std::vector<System> systems = workload(21);
  for (const System& system : systems) {
    (void)writer.run(AnalysisRequest::standard(system, {3, 8}));
  }
  const StoreSaveResult saved = writer.persist();
  EXPECT_TRUE(saved.status.is_ok());
  EXPECT_GT(saved.records_written, 0u);
  return read_file(store_snapshot_path(dir));
}

/// The corruption contract on one mutated byte string: load never
/// throws, reports OK + cold + skipped, and leaves the store empty but
/// fully usable.
void expect_clean_cold(const std::string& bytes, const std::string& dir,
                       const std::string& what) {
  const std::string path = store_snapshot_path(dir);
  write_file(path, bytes);
  ArtifactStore store;
  const StoreLoadResult loaded = store.load(path);
  EXPECT_TRUE(loaded.status.is_ok()) << what;
  EXPECT_TRUE(loaded.cold) << what;
  EXPECT_EQ(loaded.records_loaded, 0u) << what;
  EXPECT_GT(loaded.records_skipped, 0u) << what;
  EXPECT_FALSE(loaded.reason.empty()) << what;
  EXPECT_EQ(store.stats().resident_entries, 0u) << what;
  // Still usable after the rejected load.
  store.insert(ArtifactStage::kIlp, "probe", std::make_shared<const int>(7), 64);
  EXPECT_TRUE(store.lookup(ArtifactStage::kIlp, "probe").has_value()) << what;
}

TEST(StorePersist, TargetedCorruptionFallsBackCold) {
  TempDir dir;
  const std::string good = pristine_snapshot(dir.path);
  ASSERT_GT(good.size(), 32u);

  // One flip in every section: magic, section marker, string-table
  // payload, first record, footer CRC (the last byte).
  const std::size_t offsets[] = {0, 13, good.size() / 4, good.size() / 2, good.size() - 1};
  for (const std::size_t offset : offsets) {
    std::string bad = good;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x5a);
    expect_clean_cold(bad, dir.path, "flip@" + std::to_string(offset));
  }
}

TEST(StorePersist, VersionMismatchIsDistinguishable) {
  TempDir dir;
  std::string bad = pristine_snapshot(dir.path);
  // The u32 version sits right after the 8-byte magic, outside any CRC.
  bad[8] = static_cast<char>(bad[8] + 1);
  const std::string path = store_snapshot_path(dir.path);
  write_file(path, bad);
  ArtifactStore store;
  const StoreLoadResult loaded = store.load(path);
  EXPECT_TRUE(loaded.status.is_ok());
  EXPECT_TRUE(loaded.cold);
  EXPECT_GT(loaded.records_skipped, 0u);
  EXPECT_NE(loaded.reason.find("version"), std::string::npos) << loaded.reason;
}

TEST(StorePersist, FormatVersionOneLoadsCold) {
  // Older snapshots are a clean version mismatch for this build, never
  // corruption and never a partial load.  Version 1: interned
  // fragment-id keys behind a string table (magic, u32 version 1, an
  // empty string table, a zero-record footer).  Version 2: keys that
  // also digested the retired packer and combination-set flags, here
  // with one record under the retired tag 6 (a batched busy-window
  // marker with an empty payload).
  ASSERT_EQ(kStoreFormatVersion, 3u);
  std::string v1("WHARFSTO", 8);
  v1 += std::string("\x01\x00\x00\x00", 4);
  v1 += 'S';
  v1 += std::string(4 + 8 + 4, '\0');  // fragment count, payload length, CRC
  v1 += 'F';
  v1 += std::string(8 + 4, '\0');  // record count, CRC
  std::string v2("WHARFSTO", 8);
  v2 += std::string("\x02\x00\x00\x00", 4);
  v2 += 'R';
  v2 += '\x01';  // stage: busy window
  v2 += '\x06';  // retired tag: batch marker
  v2 += std::string(16 + 8 + 4, '\0');  // key, payload length, CRC
  v2 += 'F';
  v2 += std::string("\x01", 1) + std::string(7 + 4, '\0');  // record count 1, CRC
  for (const std::string* old : {&v1, &v2}) {
    TempDir dir;
    const std::string path = store_snapshot_path(dir.path);
    write_file(path, *old);
    ArtifactStore store;
    const StoreLoadResult loaded = store.load(path);
    EXPECT_TRUE(loaded.status.is_ok());
    EXPECT_TRUE(loaded.cold);
    EXPECT_EQ(loaded.records_loaded, 0u);
    EXPECT_GT(loaded.records_skipped, 0u);
    EXPECT_NE(loaded.reason.find("version"), std::string::npos) << loaded.reason;
    EXPECT_EQ(store.stats().resident_entries, 0u);
  }
}

TEST(StorePersist, CorruptionFuzzNeverCrashes) {
  TempDir dir;
  const std::string good = pristine_snapshot(dir.path);
  std::mt19937_64 rng(97);
  std::uniform_int_distribution<std::size_t> pick_offset(0, good.size() - 1);
  std::uniform_int_distribution<int> pick_bit(0, 7);
  std::uniform_int_distribution<int> pick_kind(0, 2);

  for (int i = 0; i < 200; ++i) {
    std::string bad = good;
    std::string what;
    switch (pick_kind(rng)) {
      case 0: {  // single bit flip
        const std::size_t offset = pick_offset(rng);
        bad[offset] = static_cast<char>(bad[offset] ^ (1 << pick_bit(rng)));
        what = "bitflip@" + std::to_string(offset);
        break;
      }
      case 1: {  // truncation (strictly shorter)
        bad.resize(pick_offset(rng));
        what = "truncate@" + std::to_string(bad.size());
        break;
      }
      default: {  // garbage tail appended after a truncation point
        bad.resize(pick_offset(rng));
        bad.append(16, static_cast<char>(0xee));
        what = "garbage-tail@" + std::to_string(bad.size());
        break;
      }
    }
    if (bad == good) continue;  // a flip can be undone by a resize; skip no-ops
    expect_clean_cold(bad, dir.path, what);
  }
}

// ---------------------------------------------------------------------
// Crash safety
// ---------------------------------------------------------------------

TEST(StorePersist, CrashMidSaveKeepsPreviousSnapshot) {
  TempDir dir;
  const std::string path = store_snapshot_path(dir.path);

  // First generation: a store with a known artifact population.
  EngineOptions options;
  options.store_dir = dir.path;
  Engine writer{options};
  const std::vector<System> systems = workload(31);
  for (const System& system : systems) {
    (void)writer.run(AnalysisRequest::standard(system, {3, 8}));
  }
  const StoreSaveResult first = writer.persist();
  ASSERT_TRUE(first.status.is_ok());
  const std::string generation_one = read_file(path);

  // Second generation dies mid-write at several depths, garbage temp
  // and all: the published snapshot must stay byte-identical.
  ArtifactStore second;
  ASSERT_GT(second.load(path).records_loaded, 0u);
  for (const std::size_t fail_after : {std::size_t{0}, std::size_t{7}, std::size_t{100}}) {
    StoreSaveOptions crash;
    crash.fail_after_bytes = fail_after;
    const StoreSaveResult died = StoreSnapshot::save(second, path, crash);
    EXPECT_FALSE(died.status.is_ok()) << fail_after;
    EXPECT_EQ(died.records_written, 0u) << fail_after;
    EXPECT_EQ(read_file(path), generation_one) << fail_after;
  }

  // And the survivor still loads warm.
  ArtifactStore survivor;
  const StoreLoadResult loaded = survivor.load(path);
  EXPECT_TRUE(loaded.status.is_ok());
  EXPECT_EQ(loaded.records_loaded, first.records_written);
  EXPECT_EQ(loaded.records_skipped, 0u);
}

TEST(StorePersist, SaveToUnwritableDirectoryFailsCleanly) {
  // Not a crash test hook but the everyday failure: the target
  // directory does not exist.  save() must report, not throw.
  ArtifactStore store;
  store.insert(ArtifactStage::kIlp, "probe", std::make_shared<const int>(7), 64);
  const StoreSaveResult saved = store.save("/nonexistent_wharf_dir/snap");
  EXPECT_FALSE(saved.status.is_ok());
}

}  // namespace
}  // namespace wharf
