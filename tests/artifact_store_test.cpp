// Unit tests for the staged ArtifactStore: lookup/insert semantics,
// epoch-based hit classification, weight-based admission and LRU
// eviction, per-stage statistics, and model-slice key granularity.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/case_studies.hpp"
#include "core/model_slice.hpp"
#include "engine/artifact_store.hpp"

namespace wharf {
namespace {

std::shared_ptr<const void> payload(int value) {
  return std::make_shared<const int>(value);
}

int payload_value(const ArtifactStore::Found& found) {
  return *static_cast<const int*>(found.value.get());
}

TEST(ArtifactStore, LookupMissThenInsertThenHit) {
  ArtifactStore store;
  EXPECT_FALSE(store.lookup(ArtifactStage::kBusyWindow, "k1").has_value());
  store.insert(ArtifactStage::kBusyWindow, "k1", payload(7), 100);
  const auto found = store.lookup(ArtifactStage::kBusyWindow, "k1");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(payload_value(*found), 7);
}

TEST(ArtifactStore, StagesDoNotCollide) {
  ArtifactStore store;
  store.insert(ArtifactStage::kBusyWindow, "same-key", payload(1), 10);
  store.insert(ArtifactStage::kIlp, "same-key", payload(2), 10);
  EXPECT_EQ(payload_value(*store.lookup(ArtifactStage::kBusyWindow, "same-key")), 1);
  EXPECT_EQ(payload_value(*store.lookup(ArtifactStage::kIlp, "same-key")), 2);
}

TEST(ArtifactStore, FirstInsertionWins) {
  ArtifactStore store;
  store.insert(ArtifactStage::kIlp, "k", payload(1), 10);
  store.insert(ArtifactStage::kIlp, "k", payload(2), 10);
  EXPECT_EQ(payload_value(*store.lookup(ArtifactStage::kIlp, "k")), 1);
  EXPECT_EQ(store.stats().stage[static_cast<int>(ArtifactStage::kIlp)].insertions, 1u);
}

TEST(ArtifactStore, EpochClassifiesHits) {
  ArtifactStore store;
  const std::uint64_t first = store.begin_epoch();
  store.insert(ArtifactStage::kOverload, "k", payload(1), 10);
  // Inserted during `first`: same-epoch find reports that epoch.
  EXPECT_EQ(store.lookup(ArtifactStage::kOverload, "k")->epoch, first);
  const std::uint64_t second = store.begin_epoch();
  EXPECT_LT(store.lookup(ArtifactStage::kOverload, "k")->epoch, second);
}

TEST(ArtifactStore, RejectsArtifactsHeavierThanBudget) {
  ArtifactStore store{/*byte_budget=*/128};
  store.insert(ArtifactStage::kDmmCurve, "big", payload(1), 4096);
  EXPECT_FALSE(store.lookup(ArtifactStage::kDmmCurve, "big").has_value());
  const auto stats = store.stats();
  EXPECT_EQ(stats.stage[static_cast<int>(ArtifactStage::kDmmCurve)].rejected, 1u);
  EXPECT_EQ(stats.resident_entries, 0u);
}

TEST(ArtifactStore, EvictsLeastRecentlyUsedToBudget) {
  // Three 40-byte artifacts against a budget fitting roughly two
  // (charged weight includes the key bytes).
  ArtifactStore store{/*byte_budget=*/100};
  store.insert(ArtifactStage::kIlp, "a", payload(1), 40);
  store.insert(ArtifactStage::kIlp, "b", payload(2), 40);
  EXPECT_TRUE(store.lookup(ArtifactStage::kIlp, "a").has_value());  // bump a over b
  store.insert(ArtifactStage::kIlp, "c", payload(3), 40);           // evicts b (LRU)
  EXPECT_TRUE(store.lookup(ArtifactStage::kIlp, "a").has_value());
  EXPECT_FALSE(store.lookup(ArtifactStage::kIlp, "b").has_value());
  EXPECT_TRUE(store.lookup(ArtifactStage::kIlp, "c").has_value());
  const auto stats = store.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.resident_bytes, 100u);
}

TEST(ArtifactStore, UnlimitedBudgetNeverEvicts) {
  ArtifactStore store{/*byte_budget=*/0};
  for (int i = 0; i < 100; ++i) {
    store.insert(ArtifactStage::kIlp, "k" + std::to_string(i), payload(i), 1 << 16);
  }
  EXPECT_EQ(store.stats().resident_entries, 100u);
  EXPECT_EQ(store.stats().evictions, 0u);
}

TEST(ArtifactStore, ClearDropsResidencyKeepsCounters) {
  ArtifactStore store;
  store.insert(ArtifactStage::kIlp, "k", payload(1), 10);
  store.clear();
  EXPECT_FALSE(store.lookup(ArtifactStage::kIlp, "k").has_value());
  EXPECT_EQ(store.stats().resident_entries, 0u);
  EXPECT_EQ(store.stats().resident_bytes, 0u);
  EXPECT_EQ(store.stats().stage[static_cast<int>(ArtifactStage::kIlp)].insertions, 1u);
}

TEST(ArtifactStore, StageNames) {
  EXPECT_STREQ(to_string(ArtifactStage::kInterference), "interference");
  EXPECT_STREQ(to_string(ArtifactStage::kBusyWindow), "busy_window");
  EXPECT_STREQ(to_string(ArtifactStage::kOverload), "overload");
  EXPECT_STREQ(to_string(ArtifactStage::kDmmCurve), "dmm_curve");
  EXPECT_STREQ(to_string(ArtifactStage::kIlp), "ilp");
}

// ---------------------------------------------------------------------------
// Model-slice keys: the granularity contract the store relies on
// ---------------------------------------------------------------------------

using case_studies::date17_case_study;
using case_studies::kSigmaC;
using case_studies::kSigmaD;
using case_studies::OverloadModel;

TEST(ModelSlice, EqualSystemsYieldEqualKeys) {
  const System a = date17_case_study(OverloadModel::kRareOverload);
  const System b = date17_case_study(OverloadModel::kRareOverload);
  const TwcaOptions options;
  for (int target : a.regular_indices()) {
    EXPECT_EQ(interference_key(a, target), interference_key(b, target));
    EXPECT_EQ(busy_window_key(a, target, options.analysis, false),
              busy_window_key(b, target, options.analysis, false));
    EXPECT_EQ(overload_key(a, target, options), overload_key(b, target, options));
    EXPECT_EQ(dmm_key(a, target, 10, options), dmm_key(b, target, 10, options));
  }
}

TEST(ModelSlice, TargetContentChangesItsOwnKeys) {
  const System base = date17_case_study(OverloadModel::kRareOverload);
  const System tweaked = base.with_deadline(kSigmaC, 123);
  const TwcaOptions options;
  EXPECT_NE(busy_window_key(base, kSigmaC, options.analysis, false),
            busy_window_key(tweaked, kSigmaC, options.analysis, false));
}

TEST(ModelSlice, DeadlineOfOtherChainDoesNotTaintTarget) {
  // sigma_d's deadline is read only by sigma_d's own stages; sigma_c's
  // keys must be unchanged (this is what makes path budgets cheap).
  const System base = date17_case_study(OverloadModel::kRareOverload);
  const System tweaked = base.with_deadline(kSigmaD, 150);
  const TwcaOptions options;
  EXPECT_EQ(busy_window_key(base, kSigmaC, options.analysis, false),
            busy_window_key(tweaked, kSigmaC, options.analysis, false));
  EXPECT_EQ(overload_key(base, kSigmaC, options), overload_key(tweaked, kSigmaC, options));
}

TEST(ModelSlice, OverloadModelDoesNotTaintOverloadFreeVariant) {
  // The "second analysis" excludes overload chains entirely, so the two
  // overload arrival models must produce the same overload-free key.
  const System rare = date17_case_study(OverloadModel::kRareOverload);
  const System literal = date17_case_study(OverloadModel::kLiteralSporadic);
  const TwcaOptions options;
  EXPECT_EQ(busy_window_key(rare, kSigmaC, options.analysis, true),
            busy_window_key(literal, kSigmaC, options.analysis, true));
  EXPECT_NE(busy_window_key(rare, kSigmaC, options.analysis, false),
            busy_window_key(literal, kSigmaC, options.analysis, false));
}

TEST(ModelSlice, DmmKeyDependsOnK) {
  const System sys = date17_case_study(OverloadModel::kRareOverload);
  const TwcaOptions options;
  EXPECT_NE(dmm_key(sys, kSigmaC, 3, options), dmm_key(sys, kSigmaC, 76, options));
}

TEST(ArtifactKey, KeyHasherMatchesSipHash128ReferenceVectors) {
  // SipHash-2-4 with 128-bit output, key 00..0f, message 00 01 .. (n-1):
  // the reference implementation's published vectors.
  unsigned char message[64];
  for (int i = 0; i < 64; ++i) message[i] = static_cast<unsigned char>(i);
  const std::pair<std::size_t, const char*> vectors[] = {
      {0, "a3817f04ba25a8e66df67214c7550293"},  {1, "da87c1d86b99af44347659119b22fc45"},
      {8, "3b62a9ba6258f5610f83e264f31497b4"},  {15, "5493e99933b0a8117e08ec0f97cfc3d9"},
      {63, "5150d1772f50834a503e069a973fbd7c"},
  };
  for (const auto& [length, hex] : vectors) {
    EXPECT_EQ(KeyHasher().bytes(message, length).finish().to_hex(), hex) << length;
  }
  // Field appenders agree with the raw byte stream they frame.
  EXPECT_EQ(KeyHasher().u64(0x0706050403020100ULL).finish(),
            KeyHasher().bytes(message, 8).finish());
}

TEST(ArtifactKey, TextFieldsAreLengthPrefixed) {
  EXPECT_NE(KeyHasher().text("ab").text("c").finish(), KeyHasher().text("a").text("bc").finish());
  EXPECT_NE(KeyHasher().text("a").finish(), KeyHasher().text(std::string("a\0", 2)).finish());
  EXPECT_NE(KeyHasher().u64(1).finish(), KeyHasher().u64(1).u64(0).finish());
  // Text-named keys (what the store tests above use) digest the text.
  EXPECT_EQ(ArtifactKey("k1"), ArtifactKey::of_text("k1"));
  EXPECT_EQ(ArtifactKey(std::string("k1")), ArtifactKey::of_text("k1"));
  EXPECT_NE(ArtifactKey("k1"), ArtifactKey("k2"));
}

/// Same three chains, two listing orders.  Keys whose artifacts embed
/// absolute chain indices (interference context, overload structure)
/// must pin positions and differ between the orders; the busy-window
/// artifact is pure data, so its key may legitimately coincide.
std::pair<System, System> reordered_pair() {
  Chain::Spec u;
  u.name = "u";
  u.arrival = periodic(400);
  u.deadline = 400;
  u.tasks = {Task{"tu", 3, 10}};
  Chain::Spec v;
  v.name = "v";
  v.arrival = sporadic(5000);
  v.overload = true;
  v.tasks = {Task{"tv", 5, 20}};
  Chain::Spec t;
  t.name = "t";
  t.arrival = periodic(300);
  t.deadline = 300;
  t.tasks = {Task{"tt", 1, 30}};
  System a{"sys", {Chain(u), Chain(v), Chain(t)}};   // t at index 2
  System b{"sys", {Chain(t), Chain(u), Chain(v)}};   // t at index 0
  return {std::move(a), std::move(b)};
}

TEST(ModelSlice, ReorderedChainsDoNotCollideOnIndexBearingKeys) {
  const auto [a, b] = reordered_pair();
  const int target_a = *a.chain_index("t");
  const int target_b = *b.chain_index("t");
  const TwcaOptions options;
  EXPECT_NE(interference_key(a, target_a), interference_key(b, target_b));
  EXPECT_NE(overload_key(a, target_a, options), overload_key(b, target_b, options));
}

}  // namespace
}  // namespace wharf
