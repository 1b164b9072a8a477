#include <gtest/gtest.h>

#include "util/hash.h"
#include "util/strings.h"
#include "workload/corpus.h"
#include "workload/experiment.h"
#include "workload/topology.h"

namespace bestpeer::workload {
namespace {

// ---------------------------------------------------------------- topology

TEST(TopologyTest, Star) {
  Topology t = MakeStar(5);
  EXPECT_EQ(t.node_count, 5u);
  EXPECT_EQ(t.edges.size(), 4u);
  EXPECT_EQ(t.Degree(0), 4u);
  EXPECT_EQ(t.Degree(1), 1u);
  EXPECT_TRUE(t.Connected());
}

TEST(TopologyTest, Line) {
  Topology t = MakeLine(4);
  EXPECT_EQ(t.edges.size(), 3u);
  EXPECT_EQ(t.Degree(0), 1u);
  EXPECT_EQ(t.Degree(1), 2u);
  auto dist = t.Distances(0);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_TRUE(t.Connected());
}

TEST(TopologyTest, TreeLevels) {
  EXPECT_EQ(TreeNodeCount(0, 3), 1u);
  EXPECT_EQ(TreeNodeCount(1, 3), 4u);
  EXPECT_EQ(TreeNodeCount(2, 3), 13u);
  EXPECT_EQ(TreeNodeCount(3, 2), 15u);
  Topology t = MakeTree(13, 3);
  EXPECT_TRUE(t.Connected());
  EXPECT_EQ(t.Degree(0), 3u);  // Root has fanout children.
  auto dist = t.Distances(0);
  size_t max_depth = 0;
  for (size_t d : dist) max_depth = std::max(max_depth, d);
  EXPECT_EQ(max_depth, 2u);
}

TEST(TopologyTest, PartialTreeLastLevel) {
  // 48 nodes with fanout 2 (the paper's level-5 tree uses 48 of 63).
  Topology t = MakeTree(48, 2);
  EXPECT_EQ(t.node_count, 48u);
  EXPECT_TRUE(t.Connected());
  auto dist = t.Distances(0);
  size_t max_depth = 0;
  for (size_t d : dist) max_depth = std::max(max_depth, d);
  EXPECT_EQ(max_depth, 5u);
}

TEST(TopologyTest, SingleNodeTopologies) {
  EXPECT_TRUE(MakeStar(1).Connected());
  EXPECT_TRUE(MakeLine(1).Connected());
  EXPECT_TRUE(MakeTree(1, 2).Connected());
  EXPECT_EQ(MakeStar(1).edges.size(), 0u);
}

class RandomTopologyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomTopologyTest, ConnectedAndDegreeBounded) {
  Rng rng(GetParam());
  for (size_t n : {2, 8, 32}) {
    for (size_t deg : {2, 4, 8}) {
      Topology t = MakeRandom(n, deg, rng);
      EXPECT_TRUE(t.Connected()) << "n=" << n << " deg=" << deg;
      // Soft cap: spanning edges may exceed it by a small constant.
      for (size_t i = 0; i < n; ++i) {
        EXPECT_LE(t.Degree(i), deg + 2) << "n=" << n << " deg=" << deg;
      }
      // No self loops or duplicate edges.
      std::set<std::pair<size_t, size_t>> seen;
      for (auto e : t.edges) {
        EXPECT_NE(e.first, e.second);
        EXPECT_TRUE(seen.insert(e).second);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopologyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------- corpus

TEST(CorpusTest, MatchingObjectsContainNeedle) {
  CorpusGenerator corpus({1024, 500, 0.8}, 7);
  for (int i = 0; i < 20; ++i) {
    Bytes match = corpus.MakeObject(true);
    EXPECT_EQ(match.size(), 1024u);
    EXPECT_TRUE(ContainsKeyword(ToString(match), CorpusGenerator::kNeedle));
    Bytes plain = corpus.MakeObject(false);
    EXPECT_FALSE(ContainsKeyword(ToString(plain), CorpusGenerator::kNeedle));
  }
}

TEST(CorpusTest, FileNamesFollowMatchFlag) {
  CorpusGenerator corpus({1024, 500, 0.8}, 7);
  EXPECT_TRUE(ContainsKeyword(corpus.MakeFileName(true, 0),
                              CorpusGenerator::kNeedle));
  EXPECT_FALSE(ContainsKeyword(corpus.MakeFileName(false, 0),
                               CorpusGenerator::kNeedle));
}

TEST(CorpusTest, DeterministicPerSeed) {
  CorpusGenerator a({256, 100, 0.8}, 42);
  CorpusGenerator b({256, 100, 0.8}, 42);
  EXPECT_EQ(a.MakeObject(false), b.MakeObject(false));
}

// FNV-1a over everything one generator emits for a store shape in use:
// 2000 objects (the first 10 of every 1000 matching), a pooled match and
// non-match, and file names.
uint64_t CorpusDigest(const CorpusOptions& options) {
  CorpusGenerator corpus(options, 601);
  std::string all;
  for (size_t i = 0; i < 2000; ++i) {
    all += ToString(corpus.MakeObject(i % 1000 < 10));
  }
  const std::vector<std::string> pool = CorpusGenerator::PoolTokens(8);
  all += ToString(corpus.MakeObject(true, pool));
  all += ToString(corpus.MakeObject(false, pool));
  for (size_t i = 0; i < 20; ++i) {
    all += corpus.MakeFileName(i % 4 == 0, i) + '\n';
  }
  return Fnv1a64(all);
}

// Digests of the bytes every committed baseline was generated from: a
// change to the sampler or the generator must not move them.
TEST(CorpusTest, BytesMatchParent) {
  EXPECT_EQ(CorpusDigest({1024, 500, 0.8}), 0x12477A4E46E5B305ULL);
  EXPECT_EQ(CorpusDigest({512, 300, 0.8}), 0xD0C39AE7ACFC1423ULL);
}

TEST(CorpusTest, PoolBytesHoldsEveryPooledToken) {
  const std::vector<std::string> pool = CorpusGenerator::PoolTokens(100);
  EXPECT_EQ(CorpusGenerator::PoolBytes(0), 0u);
  EXPECT_EQ(CorpusGenerator::PoolBytes(1), 7u);  // "needle0"
  ASSERT_EQ(CorpusGenerator::PoolBytes(100), 889u);
  CorpusGenerator exact({889, 500, 0.8}, 5);
  const std::string text = ToString(exact.MakeObject(true, pool));
  for (const std::string& token : pool) {
    EXPECT_TRUE(ContainsKeyword(text, token)) << token;
  }
  CorpusGenerator short_by_one({888, 500, 0.8}, 5);
  EXPECT_FALSE(ContainsKeyword(
      ToString(short_by_one.MakeObject(true, pool)), pool.back()));
}

// ---------------------------------------------------------------- placement

TEST(PlacementTest, FarHotPlacementPicksDistantNodes) {
  Topology line = MakeLine(6);
  auto matches = FarHotPlacement(line, 2, 10);
  ASSERT_EQ(matches.size(), 6u);
  EXPECT_EQ(matches[5], 10u);
  EXPECT_EQ(matches[4], 10u);
  EXPECT_EQ(matches[0], 0u);  // Base never holds answers.
  size_t total = 0;
  for (size_t m : matches) total += m;
  EXPECT_EQ(total, 20u);
}

// ---------------------------------------------------------------- runner

TEST(ExperimentTest, SmallBestPeerRun) {
  ExperimentOptions options;
  options.topology = MakeLine(4);
  options.scheme = Scheme::kBpr;
  options.objects_per_node = 50;
  options.matches_per_node = 2;
  options.queries = 2;
  options.max_direct_peers = 2;
  auto result = RunExperiment(options).value();
  ASSERT_EQ(result.queries.size(), 2u);
  // 3 non-base nodes x 2 matches.
  EXPECT_EQ(result.queries[0].total_answers, 6u);
  EXPECT_GT(result.queries[0].completion, 0);
  // Reconfiguration strictly helps on a line.
  EXPECT_LT(result.queries[1].completion, result.queries[0].completion);
}

TEST(ExperimentTest, SmallCsRun) {
  ExperimentOptions options;
  options.topology = MakeStar(4);
  options.scheme = Scheme::kMcs;
  options.objects_per_node = 50;
  options.matches_per_node = 3;
  options.queries = 1;
  auto result = RunExperiment(options).value();
  EXPECT_EQ(result.queries[0].total_answers, 9u);
  EXPECT_EQ(result.queries[0].responders, 3u);
}

TEST(ExperimentTest, SmallGnutellaRun) {
  ExperimentOptions options;
  options.topology = MakeLine(4);
  options.scheme = Scheme::kGnutella;
  options.files_per_node = 50;
  options.matches_per_node = 2;
  options.queries = 2;
  auto result = RunExperiment(options).value();
  EXPECT_EQ(result.queries[0].total_answers, 6u);
  // Gnutella never reconfigures: identical repeated runs.
  EXPECT_EQ(result.queries[0].completion, result.queries[1].completion);
}

TEST(ExperimentTest, PlacementVectorControlsAnswers) {
  ExperimentOptions options;
  options.topology = MakeLine(4);
  options.scheme = Scheme::kBps;
  options.objects_per_node = 30;
  options.matches_per_node_vec = {0, 0, 0, 5};
  options.queries = 1;
  auto result = RunExperiment(options).value();
  EXPECT_EQ(result.queries[0].total_answers, 5u);
  EXPECT_EQ(result.queries[0].responders, 1u);
}

TEST(ExperimentTest, ValidatesPlacementSize) {
  ExperimentOptions options;
  options.topology = MakeLine(3);
  options.matches_per_node_vec = {1, 2};  // Wrong length.
  EXPECT_FALSE(RunExperiment(options).ok());
}

TEST(ExperimentTest, RejectsPoolThatDoesNotFitObjects) {
  ExperimentOptions options;
  options.topology = MakeStar(3);
  options.scheme = Scheme::kBpr;
  options.objects_per_node = 4;
  options.matches_per_node = 1;
  options.queries = 1;
  options.query_pool = 100;
  options.object_size = 512;
  Result<ExperimentResult> rejected = RunExperiment(options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument());
  EXPECT_NE(rejected.status().message().find("889"), std::string::npos)
      << rejected.status().message();
  options.object_size = 889;
  EXPECT_TRUE(RunExperiment(options).ok());
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  ExperimentOptions options;
  options.topology = MakeTree(7, 2);
  options.scheme = Scheme::kBpr;
  options.objects_per_node = 30;
  options.matches_per_node = 1;
  options.queries = 2;
  auto r1 = RunExperiment(options).value();
  auto r2 = RunExperiment(options).value();
  ASSERT_EQ(r1.queries.size(), r2.queries.size());
  for (size_t i = 0; i < r1.queries.size(); ++i) {
    EXPECT_EQ(r1.queries[i].completion, r2.queries[i].completion);
    EXPECT_EQ(r1.queries[i].total_answers, r2.queries[i].total_answers);
  }
}

TEST(ExperimentTest, MessageLossAppliesToClientServerSchemes) {
  ExperimentOptions options;
  options.topology = MakeStar(6);
  options.scheme = Scheme::kMcs;
  options.objects_per_node = 30;
  options.matches_per_node = 2;
  options.queries = 2;
  options.fault.message_loss = 0.2;
  auto a = RunExperiment(options).value();
  auto b = RunExperiment(options).value();
  EXPECT_GT(a.metrics.Value("fault.drops"), 0);
  // The injector is seeded from the run seed: same drops, same run.
  EXPECT_EQ(a.metrics.Value("fault.drops"), b.metrics.Value("fault.drops"));
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].completion, b.queries[i].completion);
    EXPECT_EQ(a.queries[i].total_answers, b.queries[i].total_answers);
  }
}

TEST(ExperimentTest, AveragedRunsMerge) {
  ExperimentOptions options;
  options.topology = MakeLine(3);
  options.scheme = Scheme::kMcs;
  options.objects_per_node = 20;
  options.matches_per_node = 1;
  options.queries = 1;
  auto avg = RunAveraged(options, {1, 2, 3}).value();
  ASSERT_EQ(avg.queries.size(), 1u);
  EXPECT_EQ(avg.queries[0].total_answers, 2u);
  EXPECT_GT(avg.queries[0].completion, 0);
}

}  // namespace
}  // namespace bestpeer::workload
