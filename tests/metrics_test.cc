#include "util/metrics.h"

#include <gtest/gtest.h>

namespace bestpeer::metrics {
namespace {

// ---------------------------------------------------------------- Instruments

TEST(CounterTest, AddAndIncrement) {
  Counter c;  // No total: counts on its own.
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, AddAndIncrementReachTheTotal) {
  Counter total;
  Counter c;
  c.set_total(&total);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(total.value(), 42u);
}

TEST(CounterTest, CountersSharingATotalKeepTheirOwnValues) {
  Counter total;
  Counter a;
  Counter b;
  a.set_total(&total);
  b.set_total(&total);
  a.Add(3);
  b.Increment();
  b.Add(5);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(b.value(), 6u);
  EXPECT_EQ(total.value(), 9u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
}

TEST(HistogramTest, CountSumMinMaxMean) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.Observe(2);
  h.Observe(10);
  h.Observe(6);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 18.0);
  EXPECT_DOUBLE_EQ(h.min(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 6.0);
}

TEST(HistogramTest, BucketsSplitAtBounds) {
  Histogram h({10.0, 100.0});
  h.Observe(5);     // Bucket 0: value < 10.
  h.Observe(10);    // Bucket 1: first bound above 10 is 100.
  h.Observe(50);    // Bucket 1.
  h.Observe(5000);  // Overflow.
  ASSERT_EQ(h.buckets().size(), 3u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[2], 1u);
}

TEST(NoopTest, SharedSinksAcceptWrites) {
  Counter::Noop()->Increment();
  Gauge::Noop()->Set(1);
  Histogram::Noop()->Observe(1);
  // Same pointer every time — components can compare against it.
  EXPECT_EQ(Counter::Noop(), Counter::Noop());
}

// ---------------------------------------------------------------- Registry

TEST(RegistryTest, HandlesAreStablePerNameAndLabels) {
  Registry reg;
  Counter* a = reg.GetCounter("x");
  Counter* b = reg.GetCounter("x");
  EXPECT_EQ(a, b);
  Counter* labeled = reg.GetCounter("x", {{"node", "1"}});
  EXPECT_NE(a, labeled);
  EXPECT_EQ(reg.instrument_count(), 2u);
}

TEST(RegistryTest, LabelOrderDoesNotMatter) {
  Registry reg;
  Counter* a = reg.GetCounter("x", {{"a", "1"}, {"b", "2"}});
  Counter* b = reg.GetCounter("x", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b);
}

TEST(RegistryTest, KindMismatchReturnsNoop) {
  Registry reg;
  reg.GetCounter("x");
  EXPECT_EQ(reg.GetGauge("x"), Gauge::Noop());
  EXPECT_EQ(reg.GetHistogram("x"), Histogram::Noop());
  EXPECT_EQ(reg.instrument_count(), 1u);
}

// ---------------------------------------------------------------- Snapshot

TEST(SnapshotTest, CapturesCountersGaugesHistograms) {
  Registry reg;
  reg.GetCounter("c")->Add(5);
  reg.GetGauge("g")->Set(2.5);
  Histogram* h = reg.GetHistogram("h");
  h->Observe(1);
  h->Observe(3);

  Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.entries.size(), 3u);
  EXPECT_DOUBLE_EQ(snap.Value("c"), 5.0);
  EXPECT_DOUBLE_EQ(snap.Value("g"), 2.5);
  EXPECT_DOUBLE_EQ(snap.Value("h"), 4.0);  // Histogram value = sum.
  EXPECT_EQ(snap.CountOf("h"), 2u);
  EXPECT_DOUBLE_EQ(snap.Value("absent"), 0.0);
}

TEST(SnapshotTest, ValueSumsAcrossLabelCombinations) {
  Registry reg;
  reg.GetCounter("bytes", {{"node", "0"}})->Add(10);
  reg.GetCounter("bytes", {{"node", "1"}})->Add(32);
  Snapshot snap = reg.TakeSnapshot();
  EXPECT_DOUBLE_EQ(snap.Value("bytes"), 42.0);
}

TEST(SnapshotTest, MergeSumsCountersAndAppendsUnmatched) {
  Registry a, b;
  a.GetCounter("c")->Add(1);
  a.GetGauge("g")->Set(1);
  b.GetCounter("c")->Add(2);
  b.GetGauge("g")->Set(9);
  b.GetCounter("only_b")->Add(7);

  Snapshot merged = a.TakeSnapshot();
  merged.Merge(b.TakeSnapshot());
  EXPECT_DOUBLE_EQ(merged.Value("c"), 3.0);     // Counters sum.
  EXPECT_DOUBLE_EQ(merged.Value("g"), 9.0);     // Gauges take the newer value.
  EXPECT_DOUBLE_EQ(merged.Value("only_b"), 7.0);  // Unmatched appends.
}

TEST(SnapshotTest, MergeSumsHistogramsAndWidensBounds) {
  Registry a, b;
  Histogram* ha = a.GetHistogram("h");
  ha->Observe(1);
  ha->Observe(2);
  Histogram* hb = b.GetHistogram("h");
  hb->Observe(100);

  Snapshot merged = a.TakeSnapshot();
  merged.Merge(b.TakeSnapshot());
  EXPECT_EQ(merged.CountOf("h"), 3u);
  EXPECT_DOUBLE_EQ(merged.Value("h"), 103.0);
  ASSERT_EQ(merged.entries.size(), 1u);
  EXPECT_DOUBLE_EQ(merged.entries[0].min, 1.0);
  EXPECT_DOUBLE_EQ(merged.entries[0].max, 100.0);
}

TEST(SnapshotTest, ToJsonEmitsLabeledKeys) {
  Registry reg;
  reg.GetCounter("plain")->Add(3);
  reg.GetCounter("tagged", {{"node", "7"}})->Add(1);
  reg.GetHistogram("dist")->Observe(4);
  std::string json = reg.TakeSnapshot().ToJson();
  EXPECT_NE(json.find("\"plain\""), std::string::npos);
  EXPECT_NE(json.find("tagged{node=7}"), std::string::npos);
  EXPECT_NE(json.find("\"count\""), std::string::npos);
  EXPECT_NE(json.find("\"mean\""), std::string::npos);
}

}  // namespace
}  // namespace bestpeer::metrics
