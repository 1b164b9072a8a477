// Unit tests for the query-result cache subsystem: the TinyLFU frequency
// sketch, ResultCache admission/eviction/epoch-invalidation semantics,
// ReplicaManager promotion rate-limiting and expiry generations, and the
// shared query-normalization helper both cache layers key on.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/frequency_sketch.h"
#include "cache/replica_manager.h"
#include "cache/result_cache.h"
#include "storm/query_expr.h"
#include "storm/storm.h"
#include "util/hash.h"
#include "util/metrics.h"

namespace bestpeer::cache {
namespace {

// --- frequency sketch -----------------------------------------------------

TEST(FrequencySketchTest, EstimateTracksRecordings) {
  FrequencySketch sketch(1024);
  const uint64_t hot = Fnv1a64("hot");
  const uint64_t cold = Fnv1a64("cold");
  EXPECT_EQ(sketch.Estimate(hot), 0u);
  for (int i = 0; i < 5; ++i) sketch.Record(hot);
  EXPECT_GE(sketch.Estimate(hot), 5u);
  EXPECT_EQ(sketch.Estimate(cold), 0u);
  EXPECT_EQ(sketch.recordings(), 5u);
}

TEST(FrequencySketchTest, CountersSaturateAtFifteen) {
  FrequencySketch sketch(1024);
  const uint64_t h = Fnv1a64("saturate");
  for (int i = 0; i < 100; ++i) sketch.Record(h);
  EXPECT_EQ(sketch.Estimate(h), 15u);
}

TEST(FrequencySketchTest, AgingHalvesEstimates) {
  FrequencySketch sketch(16);  // Small width => sample period 160.
  const uint64_t hot = Fnv1a64("hot");
  for (int i = 0; i < 30; ++i) sketch.Record(hot);
  ASSERT_EQ(sketch.Estimate(hot), 15u);
  // Flood with distinct keys until the sample period trips.
  for (int i = 0; i < 200 && sketch.agings() == 0; ++i) {
    sketch.Record(Fnv1a64("filler" + std::to_string(i)));
  }
  ASSERT_GE(sketch.agings(), 1u) << "sample period never tripped";
  EXPECT_LE(sketch.Estimate(hot), 7u)
      << "halving must decay a saturated counter";
}

// --- result cache ---------------------------------------------------------

CachedSlice Slice(uint64_t source, uint64_t epoch, size_t n_ids = 4) {
  CachedSlice s;
  s.source = source;
  s.epoch = epoch;
  s.hops = 2;
  for (size_t i = 0; i < n_ids; ++i) s.ids.push_back(100 + i);
  return s;
}

TEST(ResultCacheTest, MissThenInsertThenHit) {
  ResultCache rc({});  // No registry: the cache still counts on its own.
  EXPECT_EQ(rc.ProbeSlice("needle", 7, 1), nullptr);
  EXPECT_EQ(rc.misses(), 1u);

  ASSERT_TRUE(rc.InsertSlice("needle", Slice(7, 1)));
  const CachedSlice* hit = rc.ProbeSlice("needle", 7, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->source, 7u);
  EXPECT_EQ(hit->ids.size(), 4u);
  EXPECT_EQ(rc.hits(), 1u);
  EXPECT_EQ(rc.insertions(), 1u);
  EXPECT_GT(rc.bytes_used(), 0u);
}

TEST(ResultCacheTest, StaleEpochIsDroppedNeverServed) {
  ResultCache rc({});
  ASSERT_TRUE(rc.InsertSlice("needle", Slice(7, /*epoch=*/1)));
  // The producer's store mutated: probing at the new epoch must not
  // return the old slice, and must drop it.
  EXPECT_EQ(rc.ProbeSlice("needle", 7, /*current_epoch=*/2), nullptr);
  EXPECT_EQ(rc.invalidations(), 1u);
  // The stale slice is gone even for a probe at the original epoch.
  EXPECT_EQ(rc.ProbeSlice("needle", 7, 1), nullptr);
  EXPECT_EQ(rc.hits(), 0u);
  EXPECT_EQ(rc.slice_count(), 0u);
  EXPECT_EQ(rc.bytes_used(), 0u);
}

TEST(ResultCacheTest, ByteBudgetEvictsLru) {
  ResultCacheOptions options;
  // Each slice accounts key(2) + 4 ids (32) + 64 overhead = 98 bytes, so
  // three entries fit a 300-byte budget and a fourth forces an eviction.
  options.byte_budget = 300;
  ResultCache rc(options);
  ASSERT_TRUE(rc.InsertSlice("q0", Slice(1, 1)));
  ASSERT_TRUE(rc.InsertSlice("q1", Slice(1, 1)));
  ASSERT_TRUE(rc.InsertSlice("q2", Slice(1, 1)));
  EXPECT_EQ(rc.evictions(), 0u);
  ASSERT_NE(rc.SlicesFor("q0"), nullptr);  // Touch: q1 becomes the LRU.

  rc.RecordAccess("q3");  // Hotter than the victim: TinyLFU admits it.
  ASSERT_TRUE(rc.InsertSlice("q3", Slice(1, 1)));
  EXPECT_EQ(rc.evictions(), 1u);
  EXPECT_LE(rc.bytes_used(), options.byte_budget);
  EXPECT_EQ(rc.SlicesFor("q1"), nullptr) << "LRU entry must go first";
  EXPECT_NE(rc.SlicesFor("q0"), nullptr);
  EXPECT_NE(rc.SlicesFor("q3"), nullptr);
}

TEST(ResultCacheTest, TinyLfuRejectsColdAdmitsHot) {
  ResultCacheOptions options;
  options.byte_budget = 300;
  ResultCache rc(options);
  for (const char* key : {"q0", "q1", "q2"}) {
    for (int i = 0; i < 3; ++i) rc.RecordAccess(key);
    ASSERT_TRUE(rc.InsertSlice(key, Slice(1, 1)));
  }

  // A never-accessed key must not displace a resident hot one.
  EXPECT_FALSE(rc.InsertSlice("q9", Slice(1, 1)));
  EXPECT_EQ(rc.admission_rejected(), 1u);
  EXPECT_EQ(rc.entry_count(), 3u);
  EXPECT_EQ(rc.evictions(), 0u);

  // Once the sketch sees it as hotter than the LRU victim, it gets in.
  for (int i = 0; i < 5; ++i) rc.RecordAccess("q9");
  EXPECT_TRUE(rc.InsertSlice("q9", Slice(1, 1)));
  EXPECT_EQ(rc.entry_count(), 3u);
  EXPECT_EQ(rc.evictions(), 1u);
  EXPECT_NE(rc.SlicesFor("q9"), nullptr);
}

TEST(ResultCacheTest, OversizeInsertIsRejected) {
  ResultCacheOptions options;
  options.byte_budget = 100;
  ResultCache rc(options);
  EXPECT_FALSE(rc.InsertSlice("big", Slice(1, 1, /*n_ids=*/20)));
  EXPECT_EQ(rc.entry_count(), 0u);
  EXPECT_EQ(rc.bytes_used(), 0u);
}

TEST(ResultCacheTest, ReinsertSameSourceReplacesAndReaccounts) {
  ResultCache rc({});
  ASSERT_TRUE(rc.InsertSlice("needle", Slice(7, 1, 4)));
  const size_t before = rc.bytes_used();
  ASSERT_TRUE(rc.InsertSlice("needle", Slice(7, 2, 8)));
  EXPECT_EQ(rc.slice_count(), 1u);
  EXPECT_EQ(rc.bytes_used(), before + 4 * sizeof(uint64_t));
  const CachedSlice* hit = rc.ProbeSlice("needle", 7, 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->ids.size(), 8u);
}

TEST(ResultCacheTest, SlicesForCollectsPerSourceAndDropRemoves) {
  ResultCache rc({});
  ASSERT_TRUE(rc.InsertSlice("needle", Slice(7, 1)));
  ASSERT_TRUE(rc.InsertSlice("needle", Slice(8, 3)));
  const auto* slices = rc.SlicesFor("needle");
  ASSERT_NE(slices, nullptr);
  EXPECT_EQ(slices->size(), 2u);
  EXPECT_EQ(slices->at(8).epoch, 3u);

  rc.DropSlice("needle", 7);
  EXPECT_EQ(rc.slice_count(), 1u);
  rc.DropSlice("needle", 8);
  EXPECT_EQ(rc.entry_count(), 0u);
  EXPECT_EQ(rc.bytes_used(), 0u);
  rc.DropSlice("needle", 8);  // No-op when absent.
}

TEST(ResultCacheTest, ExportsMetrics) {
  metrics::Registry registry;
  ResultCacheOptions options;
  options.metrics = &registry;
  ResultCache rc(options);
  rc.ProbeSlice("needle", 7, 1);
  ASSERT_TRUE(rc.InsertSlice("needle", Slice(7, 1)));
  rc.ProbeSlice("needle", 7, 1);
  rc.ProbeSlice("needle", 7, 2);  // Stale: invalidation.

  auto snapshot = registry.TakeSnapshot();
  EXPECT_DOUBLE_EQ(snapshot.Value("cache.hits"), 1.0);
  EXPECT_DOUBLE_EQ(snapshot.Value("cache.misses"), 2.0);
  EXPECT_DOUBLE_EQ(snapshot.Value("cache.insertions"), 1.0);
  EXPECT_DOUBLE_EQ(snapshot.Value("cache.invalidations"), 1.0);
  EXPECT_DOUBLE_EQ(snapshot.Value("cache.bytes"), 0.0);
}

TEST(ResultCacheTest, CachesOnOneRegistryKeepTheirOwnCounts) {
  metrics::Registry registry;
  ResultCacheOptions options;
  options.metrics = &registry;
  ResultCache a(options);
  ResultCache b(options);
  ASSERT_TRUE(a.InsertSlice("needle", Slice(7, 1)));
  a.ProbeSlice("needle", 7, 1);
  a.ProbeSlice("needle", 7, 1);
  b.ProbeSlice("needle", 7, 1);
  ASSERT_TRUE(b.InsertSlice("needle", Slice(7, 1)));
  b.ProbeSlice("needle", 7, 1);

  EXPECT_EQ(a.hits(), 2u);
  EXPECT_EQ(a.misses(), 0u);
  EXPECT_EQ(b.hits(), 1u);
  EXPECT_EQ(b.misses(), 1u);
  auto snapshot = registry.TakeSnapshot();
  EXPECT_DOUBLE_EQ(snapshot.Value("cache.hits"), 3.0);
  EXPECT_DOUBLE_EQ(snapshot.Value("cache.misses"), 1.0);
}

// --- replica manager ------------------------------------------------------

TEST(ReplicaManagerTest, PromotionNeedsThresholdAndRespectsCooldown) {
  ReplicaManagerOptions options;
  options.hot_threshold = 3;
  options.cooldown = Millis(10);
  ReplicaManager mgr(options);

  EXPECT_FALSE(mgr.ShouldPromote("needle", 2, 0));
  EXPECT_TRUE(mgr.ShouldPromote("needle", 3, 0));
  EXPECT_FALSE(mgr.ShouldPromote("needle", 15, Millis(5)))
      << "within the cooldown window";
  EXPECT_TRUE(mgr.ShouldPromote("needle", 15, Millis(10)));
  EXPECT_EQ(mgr.promotions(), 2u);
}

TEST(ReplicaManagerTest, TopKSlotsAgeOutStaleKeys) {
  ReplicaManagerOptions options;
  options.hot_threshold = 1;
  options.top_k = 1;
  options.cooldown = Millis(10);
  ReplicaManager mgr(options);

  EXPECT_TRUE(mgr.ShouldPromote("a", 5, 0));
  EXPECT_FALSE(mgr.ShouldPromote("b", 5, Millis(1)))
      << "the single slot is held by a";
  // Past 4x cooldown without a re-promotion, a's slot is reclaimed.
  EXPECT_TRUE(mgr.ShouldPromote("b", 5, Millis(41)));
}

TEST(ReplicaManagerTest, ExpiryGenerationGuard) {
  ReplicaManager mgr({});
  const uint64_t gen1 = mgr.NoteStored(0xAB);
  const uint64_t gen2 = mgr.NoteStored(0xAB);  // Re-push re-arms the lease.
  EXPECT_NE(gen1, gen2);
  EXPECT_FALSE(mgr.ShouldExpire(0xAB, gen1))
      << "an orphaned timer from the first push must not fire";
  EXPECT_TRUE(mgr.ShouldExpire(0xAB, gen2));
  EXPECT_TRUE(mgr.Tracks(0xAB));

  mgr.Remove(0xAB);
  EXPECT_FALSE(mgr.Tracks(0xAB));
  EXPECT_FALSE(mgr.ShouldExpire(0xAB, gen2));
  EXPECT_EQ(mgr.replica_count(), 0u);
}

TEST(ReplicaManagerTest, QosScoreOrdersByRttFailuresAndBandwidth) {
  PeerQoS base;  // Neutral: no history, default bandwidth.
  const double neutral = ReplicaManager::Score(base);
  EXPECT_GT(neutral, 0.0);

  PeerQoS slow = base;
  slow.rtt_us = 5000;
  EXPECT_LT(ReplicaManager::Score(slow), neutral)
      << "observed RTT must lower the placement score";

  PeerQoS flaky = base;
  flaky.failures = 1;
  PeerQoS flakier = base;
  flakier.failures = 2;
  EXPECT_LT(ReplicaManager::Score(flaky), neutral);
  // The penalty is quadratic in consecutive failures.
  EXPECT_LT(ReplicaManager::Score(flakier) * 2,
            ReplicaManager::Score(flaky));

  PeerQoS narrow = base;
  narrow.bandwidth_bytes_per_us = base.bandwidth_bytes_per_us / 4;
  EXPECT_LT(ReplicaManager::Score(narrow), neutral);
  PeerQoS wide = base;
  wide.bandwidth_bytes_per_us = base.bandwidth_bytes_per_us * 4;
  EXPECT_GT(ReplicaManager::Score(wide), neutral)
      << "link bandwidth must raise the placement score";
}

TEST(ReplicaManagerTest, SelectTargetsIsDeterministicTopByScore) {
  PeerQoS strong;
  strong.bandwidth_bytes_per_us = 125;
  PeerQoS weak;
  weak.rtt_us = 20000;
  weak.failures = 3;
  PeerQoS neutral;

  std::vector<std::pair<NodeId, PeerQoS>> candidates = {
      {9, weak}, {4, neutral}, {2, strong}, {7, neutral}};
  std::vector<NodeId> picked =
      ReplicaManager::SelectTargets(candidates, /*fanout=*/3);
  // Best score first; the equal-score pair breaks the tie by node id.
  ASSERT_EQ(picked.size(), 3u);
  EXPECT_EQ(picked[0], 2u);
  EXPECT_EQ(picked[1], 4u);
  EXPECT_EQ(picked[2], 7u);

  // Input order must not matter, and fanout may exceed the pool.
  std::vector<std::pair<NodeId, PeerQoS>> shuffled = {
      {7, neutral}, {2, strong}, {9, weak}, {4, neutral}};
  EXPECT_EQ(ReplicaManager::SelectTargets(shuffled, 3), picked);
  EXPECT_EQ(ReplicaManager::SelectTargets(candidates, 99).size(), 4u);
  EXPECT_TRUE(ReplicaManager::SelectTargets({}, 2).empty());
}

TEST(ReplicaManagerTest, RevokeFromDropsOnlyThatSourcesLeases) {
  ReplicaManager mgr({});
  mgr.NoteStored(0xA1, /*source=*/5);
  const uint64_t b_gen = mgr.NoteStored(0xB2, /*source=*/6);
  mgr.NoteStored(0xC3, /*source=*/5);

  std::vector<uint64_t> revoked = mgr.RevokeFrom(5);
  ASSERT_EQ(revoked.size(), 2u);
  EXPECT_EQ(mgr.leases_revoked(), 2u);
  EXPECT_FALSE(mgr.Tracks(0xA1));
  EXPECT_FALSE(mgr.Tracks(0xC3));
  EXPECT_TRUE(mgr.Tracks(0xB2))
      << "a different pusher's lease must survive the revocation";
  EXPECT_TRUE(mgr.ShouldExpire(0xB2, b_gen));

  // Re-pushing a revoked object from a new source re-arms it cleanly.
  const uint64_t regen = mgr.NoteStored(0xA1, /*source=*/6);
  EXPECT_TRUE(mgr.ShouldExpire(0xA1, regen));
  EXPECT_TRUE(mgr.RevokeFrom(5).empty());
  EXPECT_EQ(mgr.leases_revoked(), 2u);
}

// --- query normalization (the shared cache key) ---------------------------

TEST(QueryNormalizationTest, OrderCaseAndDuplicatesCollapse) {
  using storm::QueryExpr;
  const std::string canonical = QueryExpr::NormalizeQuery("a b").value();
  EXPECT_EQ(QueryExpr::NormalizeQuery("b a").value(), canonical);
  EXPECT_EQ(QueryExpr::NormalizeQuery("B  A").value(), canonical);
  EXPECT_EQ(QueryExpr::NormalizeQuery("a b a").value(), canonical);
  EXPECT_EQ(QueryExpr::NormalizeQuery("x OR y").value(),
            QueryExpr::NormalizeQuery("y OR x").value());
  EXPECT_NE(QueryExpr::NormalizeQuery("a").value(), canonical);
  EXPECT_FALSE(QueryExpr::NormalizeQuery("").ok());
  EXPECT_FALSE(QueryExpr::NormalizeQuery("a OR").ok());
}

TEST(QueryNormalizationTest, StormQueryCacheSharesOneEntryAcrossVariants) {
  storm::StormOptions options;
  options.enable_query_cache = true;
  auto storm = storm::Storm::Open(options).value();
  const std::string text = "alpha beta";
  storm->Put(1, Bytes(text.begin(), text.end())).ok();
  auto first = storm->ScanSearch("beta alpha").value();
  EXPECT_FALSE(first.from_cache);
  auto second = storm->ScanSearch("Alpha Beta").value();
  EXPECT_TRUE(second.from_cache)
      << "keyword order and case variants must share one cache key";
  EXPECT_EQ(second.matches, first.matches);
}

}  // namespace
}  // namespace bestpeer::cache
