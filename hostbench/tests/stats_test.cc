// Percentile helpers and span self-time accounting of the host-time
// benchmark.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common.h"

namespace hostbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;
}

size_t CountAbove(const std::vector<double>& v, double threshold) {
  size_t n = 0;
  for (double x : v) n += x > threshold ? 1 : 0;
  return n;
}

TEST(PercentileTest, SortsThenInterpolatesLikeTheRepo) {
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({7}, 90), 7);
  EXPECT_DOUBLE_EQ(Percentile(Ramp(10), 50), 5.5);
  EXPECT_DOUBLE_EQ(Percentile(Ramp(10), 90), 9.1);
  EXPECT_DOUBLE_EQ(Percentile(Ramp(100), 100), 100);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(PercentileTest, HighestSupportedKeepsTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50);
  EXPECT_EQ(HighestSupportedPercentile(100), 90);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  // For every size: the answer has at least ten samples above it, and the
  // next higher percentile would not.
  const std::vector<double> ps = {0, 50, 90, 99, 99.9};
  for (size_t n = 1; n <= 12000; n += n < 1200 ? 1 : 97) {
    const std::vector<double> v = Ramp(n);
    const double best = HighestSupportedPercentile(n);
    if (best > 0) {
      EXPECT_GE(CountAbove(v, Percentile(v, best)), 10u) << "n=" << n;
    }
    const auto next = std::upper_bound(ps.begin(), ps.end(), best);
    if (next != ps.end()) {
      EXPECT_LT(CountAbove(v, Percentile(v, *next)), 10u) << "n=" << n;
    }
  }
}

TEST(TracerTest, SelfTimeSubtractsChildrenAndQueryIdsPropagate) {
  Tracer tracer;
  tracer.Add("bench.query", 5, 0, 100);
  const uint32_t root = tracer.Begin("bench.setup", 0);
  tracer.Add("workload.make_object", 0, 10, 40);
  tracer.Add("core.share_object", 0, 40, 50);
  tracer.End(root);
  const auto split = tracer.SelfMsByLayer();
  EXPECT_DOUBLE_EQ(split.at("workload"), 30e-6);
  EXPECT_DOUBLE_EQ(split.at("core"), 10e-6);
  EXPECT_EQ(tracer.Total("core.share_object").second, 1u);

  const uint32_t query = tracer.Begin("bench.query", 0);
  const uint32_t issue = tracer.Begin("core.issue_search", 0);
  tracer.TagOpen(42);
  tracer.End(issue);
  const uint32_t run = tracer.Begin("sim.run_until_idle", 0);
  tracer.End(run);
  tracer.End(query);
  for (uint32_t id : {query, issue, run}) {
    EXPECT_EQ(tracer.spans()[id - 1].query, 42u);
  }
  EXPECT_EQ(tracer.spans()[run - 1].parent, query);
}

}  // namespace
}  // namespace hostbench
