#include <gtest/gtest.h>

#include <algorithm>

#include "core/reconfig_strategy.h"
#include "util/rng.h"

namespace bestpeer::core {
namespace {

const ReconfigStrategy& Strategy(std::string_view name) {
  return *MakeReconfigStrategy(name).value();
}

PeerObservation Obs(NodeId node, uint64_t answers, uint16_t hops) {
  PeerObservation o;
  o.node = node;
  o.answers = answers;
  o.hops = hops;
  return o;
}

TEST(MaxCountTest, KeepsTopAnswerers) {
  const ReconfigStrategy& s = Strategy("maxcount");
  std::vector<PeerObservation> obs = {Obs(10, 5, 2), Obs(11, 50, 3),
                                      Obs(12, 20, 1)};
  auto result = s.SelectPeers(obs, {1, 2}, 2);
  EXPECT_EQ(result, (std::vector<NodeId>{11, 12}));
}

TEST(MaxCountTest, FigureTwoScenario) {
  // Fig. 2: X has peers A, B; answers come from C and E; k = 4 keeps all.
  const ReconfigStrategy& s = Strategy("maxcount");
  std::vector<PeerObservation> obs = {Obs(/*C=*/3, 7, 2), Obs(/*E=*/5, 4, 3)};
  auto result = s.SelectPeers(obs, {/*A=*/1, /*B=*/2}, 4);
  EXPECT_EQ(result, (std::vector<NodeId>{1, 2, 3, 5}));
}

TEST(MaxCountTest, NonRespondingPeersRankLast) {
  const ReconfigStrategy& s = Strategy("maxcount");
  // One answering stranger beats silent current peers when k=1.
  auto result = s.SelectPeers({Obs(9, 1, 4)}, {1, 2, 3}, 1);
  EXPECT_EQ(result, (std::vector<NodeId>{9}));
}

TEST(MaxCountTest, TieBrokenByNodeId) {
  const ReconfigStrategy& s = Strategy("maxcount");
  auto result = s.SelectPeers({Obs(5, 10, 1), Obs(3, 10, 1)}, {}, 1);
  EXPECT_EQ(result, (std::vector<NodeId>{3}));
}

TEST(MaxCountTest, CurrentPeerStatsCombineWithObservation) {
  const ReconfigStrategy& s = Strategy("maxcount");
  // Current peer 1 also answered: its observation wins over the default 0.
  auto result = s.SelectPeers({Obs(1, 9, 1), Obs(2, 3, 2)}, {1}, 1);
  EXPECT_EQ(result, (std::vector<NodeId>{1}));
}

TEST(MinHopsTest, PrefersFartherNodes) {
  const ReconfigStrategy& s = Strategy("minhops");
  std::vector<PeerObservation> obs = {Obs(10, 5, 1), Obs(11, 5, 4),
                                      Obs(12, 5, 2)};
  auto result = s.SelectPeers(obs, {}, 2);
  EXPECT_EQ(result, (std::vector<NodeId>{11, 12}));
}

TEST(MinHopsTest, TieBrokenByAnswers) {
  const ReconfigStrategy& s = Strategy("minhops");
  std::vector<PeerObservation> obs = {Obs(10, 5, 3), Obs(11, 50, 3)};
  auto result = s.SelectPeers(obs, {}, 1);
  EXPECT_EQ(result, (std::vector<NodeId>{11}));
}

TEST(MinHopsTest, SilentCurrentPeersTreatedAsOneHop) {
  const ReconfigStrategy& s = Strategy("minhops");
  auto result = s.SelectPeers({Obs(9, 1, 2)}, {1}, 1);
  EXPECT_EQ(result, (std::vector<NodeId>{9}));
}

TEST(FastestResponseTest, PrefersEarliestResponders) {
  const ReconfigStrategy& s = Strategy("fastest");
  PeerObservation slow = Obs(10, 5, 1);
  slow.first_response = 9000;
  PeerObservation fast = Obs(11, 5, 1);
  fast.first_response = 1000;
  PeerObservation mid = Obs(12, 5, 1);
  mid.first_response = 5000;
  auto result = s.SelectPeers({slow, fast, mid}, {}, 2);
  EXPECT_EQ(result, (std::vector<NodeId>{11, 12}));
}

TEST(FastestResponseTest, RespondersBeatSilentPeers) {
  const ReconfigStrategy& s = Strategy("fastest");
  PeerObservation responder = Obs(9, 1, 3);
  responder.first_response = 50000;  // Slow, but it answered.
  auto result = s.SelectPeers({responder}, {1, 2}, 1);
  EXPECT_EQ(result, (std::vector<NodeId>{9}));
}

TEST(FastestResponseTest, TieBrokenByAnswers) {
  const ReconfigStrategy& s = Strategy("fastest");
  PeerObservation a = Obs(5, 2, 1);
  a.first_response = 1000;
  PeerObservation b = Obs(6, 9, 1);
  b.first_response = 1000;
  auto result = s.SelectPeers({a, b}, {}, 1);
  EXPECT_EQ(result, (std::vector<NodeId>{6}));
}

TEST(NoReconfigTest, KeepsCurrentPeers) {
  const ReconfigStrategy& s = Strategy("none");
  auto result =
      s.SelectPeers({Obs(9, 100, 5)}, {1, 2, 3}, 3);
  EXPECT_EQ(result, (std::vector<NodeId>{1, 2, 3}));
}

TEST(NoReconfigTest, TruncatesToCapacity) {
  const ReconfigStrategy& s = Strategy("none");
  auto result = s.SelectPeers({}, {1, 2, 3, 4}, 2);
  EXPECT_EQ(result.size(), 2u);
}

TEST(StrategyRegistryTest, MakeByName) {
  EXPECT_EQ(MakeReconfigStrategy("maxcount").value()->name(), "maxcount");
  EXPECT_EQ(MakeReconfigStrategy("minhops").value()->name(), "minhops");
  EXPECT_EQ(MakeReconfigStrategy("fastest").value()->name(), "fastest");
  EXPECT_EQ(MakeReconfigStrategy("none").value()->name(), "none");
  EXPECT_FALSE(MakeReconfigStrategy("best").ok());
}

// Property tests over random observation sets.
class StrategyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StrategyPropertyTest, SelectionInvariants) {
  bestpeer::Rng rng(GetParam());
  for (const char* name : {"maxcount", "minhops", "fastest", "none"}) {
    auto strategy = MakeReconfigStrategy(name).value();
    for (int iter = 0; iter < 50; ++iter) {
      std::vector<PeerObservation> obs;
      size_t nobs = rng.NextBounded(10);
      for (size_t i = 0; i < nobs; ++i) {
        obs.push_back(Obs(static_cast<NodeId>(rng.NextBounded(20)),
                          rng.NextBounded(100),
                          static_cast<uint16_t>(rng.NextBounded(8))));
      }
      std::vector<NodeId> current;
      size_t ncur = rng.NextBounded(5);
      for (size_t i = 0; i < ncur; ++i) {
        current.push_back(static_cast<NodeId>(rng.NextBounded(20)));
      }
      std::sort(current.begin(), current.end());
      current.erase(std::unique(current.begin(), current.end()),
                    current.end());
      size_t k = rng.NextBounded(6) + 1;

      auto selected = strategy->SelectPeers(obs, current, k);
      // Never exceeds capacity.
      EXPECT_LE(selected.size(), k) << name;
      // No duplicates.
      auto sorted = selected;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end())
          << name;
      // Every selected node is a known candidate.
      for (auto node : selected) {
        bool known = std::any_of(obs.begin(), obs.end(),
                                 [node](const PeerObservation& o) {
                                   return o.node == node;
                                 }) ||
                     std::find(current.begin(), current.end(), node) !=
                         current.end();
        EXPECT_TRUE(known) << name << " selected unknown node " << node;
      }
    }
  }
}

TEST_P(StrategyPropertyTest, MaxCountIsGreedyOptimal) {
  bestpeer::Rng rng(GetParam() ^ 0xABCDEF);
  const ReconfigStrategy& s = Strategy("maxcount");
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<PeerObservation> obs;
    size_t nobs = rng.NextBounded(15) + 1;
    for (size_t i = 0; i < nobs; ++i) {
      obs.push_back(Obs(static_cast<NodeId>(i), rng.NextBounded(100),
                        1));
    }
    size_t k = rng.NextBounded(nobs) + 1;
    auto selected = s.SelectPeers(obs, {}, k);
    // The minimum selected answer count must be >= the maximum excluded.
    uint64_t min_sel = UINT64_MAX;
    for (auto node : selected) min_sel = std::min(min_sel, obs[node].answers);
    for (const auto& o : obs) {
      bool in = std::find(selected.begin(), selected.end(), o.node) !=
                selected.end();
      if (!in) EXPECT_LE(o.answers, min_sel);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace bestpeer::core
