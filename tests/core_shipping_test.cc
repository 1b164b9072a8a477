#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/node.h"
#include "core/search_agent.h"
#include "core/shipping.h"
#include "net/sim_transport.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace bestpeer::core {
namespace {

// ---------------------------------------------------------------- cost model

TEST(ShippingCostTest, TinyStoreFavorsDataShipping) {
  net::LinkProfile link;
  ShippingCostInputs inputs;
  inputs.remote_objects = 2;
  inputs.object_size = 1024;
  inputs.class_cached = true;
  EXPECT_EQ(ChooseShippingStrategy(inputs, link),
            ShippingStrategy::kDataShipping);
}

TEST(ShippingCostTest, LargeStoreFavorsCodeShipping) {
  net::LinkProfile link;
  ShippingCostInputs inputs;
  inputs.remote_objects = 1000;
  inputs.object_size = 1024;
  inputs.class_cached = true;
  EXPECT_EQ(ChooseShippingStrategy(inputs, link),
            ShippingStrategy::kCodeShipping);
}

TEST(ShippingCostTest, UnknownStoreDefaultsToCode) {
  net::LinkProfile link;
  ShippingCostInputs inputs;
  inputs.remote_objects = 0;
  EXPECT_EQ(ChooseShippingStrategy(inputs, link),
            ShippingStrategy::kCodeShipping);
}

TEST(ShippingCostTest, ColdClassCacheShiftsCrossover) {
  net::LinkProfile link;
  // Find a store size where the warm-cache choice is code shipping but
  // the cold-cache choice (16 KB class + 8 ms load) is data shipping.
  bool found = false;
  for (size_t objects = 1; objects <= 200; ++objects) {
    ShippingCostInputs warm;
    warm.remote_objects = objects;
    warm.class_cached = true;
    ShippingCostInputs cold = warm;
    cold.class_cached = false;
    if (ChooseShippingStrategy(warm, link) ==
            ShippingStrategy::kCodeShipping &&
        ChooseShippingStrategy(cold, link) ==
            ShippingStrategy::kDataShipping) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << "class shipping cost should move the crossover";
}

TEST(ShippingCostTest, EstimatesAreMonotonicInStoreSize) {
  net::LinkProfile link;
  SimTime prev_code = 0, prev_data = 0;
  for (size_t objects : {1, 10, 100, 1000}) {
    ShippingCostInputs inputs;
    inputs.remote_objects = objects;
    SimTime code = EstimateCodeShippingCost(inputs, link);
    SimTime data = EstimateDataShippingCost(inputs, link);
    EXPECT_GT(code, prev_code);
    EXPECT_GT(data, prev_data);
    prev_code = code;
    prev_data = data;
  }
}

TEST(ShippingCostTest, Names) {
  EXPECT_EQ(ShippingStrategyName(ShippingStrategy::kCodeShipping), "code");
  EXPECT_EQ(ShippingStrategyName(ShippingStrategy::kDataShipping), "data");
  EXPECT_EQ(ShippingModeName(ShippingMode::kAdaptive), "adaptive");
}

// ---------------------------------------------------------------- end to end

class ShippingFixture : public ::testing::Test {
 protected:
  void Build(const std::vector<size_t>& store_sizes) {
    network_ =
        std::make_unique<sim::SimNetwork>(&sim_, sim::NetworkOptions{});
    fleet_ = std::make_unique<net::SimTransportFleet>(network_.get());
    infra_ = std::make_unique<core::SharedInfra>();
    BestPeerConfig config;
    config.max_direct_peers = 8;
    for (size_t i = 0; i < store_sizes.size(); ++i) {
      auto node =
          BestPeerNode::Create(fleet_->AddNode(), infra_.get(), config);
      nodes_.push_back(std::move(node).value());
      nodes_.back()->InitStorage({}).ok();
      bestpeer::Rng rng(1234 + i);
      for (size_t o = 0; o < store_sizes[i]; ++o) {
        std::string text = o == 0 ? "needle text " : "plain text ";
        Bytes content(text.begin(), text.end());
        // Poorly compressible filler so wire-byte comparisons are about
        // payload volume, not codec luck.
        while (content.size() < 512) {
          content.push_back(static_cast<uint8_t>(
              'A' + rng.NextBounded(26) + (rng.NextBool() ? 32 : 0)));
          if (rng.NextBool(0.1)) content.push_back(' ');
        }
        nodes_.back()
            ->ShareObject((static_cast<uint64_t>(i) << 24) | o, content)
            .ok();
      }
    }
    // Star around node 0.
    for (size_t i = 1; i < nodes_.size(); ++i) {
      nodes_[0]->AddDirectPeerLocal(nodes_[i]->node());
      nodes_[i]->AddDirectPeerLocal(nodes_[0]->node());
    }
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::SimNetwork> network_;
  std::unique_ptr<net::SimTransportFleet> fleet_;
  std::unique_ptr<core::SharedInfra> infra_;
  std::vector<std::unique_ptr<BestPeerNode>> nodes_;
};

TEST_F(ShippingFixture, AlwaysDataPullsStoresAndFindsMatches) {
  Build({0, 5, 8});
  uint64_t qid = nodes_[0]
                    ->shipping()
                    .IssueDirectSearch("needle", ShippingMode::kAlwaysData)
                    .value();
  sim_.RunUntilIdle();
  const QuerySession* session = nodes_[0]->FindSession(qid);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->total_indicated(), 2u);  // One match per peer store.
  EXPECT_EQ(session->responder_count(), 2u);
  // Hints learned from the shipped stores.
  EXPECT_EQ(nodes_[0]->shipping().StoreSizeHint(nodes_[1]->node()), 5u);
  EXPECT_EQ(nodes_[0]->shipping().StoreSizeHint(nodes_[2]->node()), 8u);
}

TEST_F(ShippingFixture, DataAndCodeShippingSpeakTheSameQueryLanguage) {
  Build({0, 5, 8});
  // Both strategies evaluate the StorM query language: AND-ed terms, OR
  // branches, case-insensitive whole tokens. One match per peer store.
  for (const char* query :
       {"needle", "text needle", "needle OR zzz", "NEEDLE"}) {
    for (ShippingMode mode :
         {ShippingMode::kAlwaysData, ShippingMode::kAlwaysCode}) {
      uint64_t qid =
          nodes_[0]->shipping().IssueDirectSearch(query, mode).value();
      sim_.RunUntilIdle();
      EXPECT_EQ(nodes_[0]->FindSession(qid)->total_indicated(), 2u)
          << '"' << query << "\" by " << ShippingModeName(mode);
    }
  }
}

TEST_F(ShippingFixture, AlwaysCodeUsesAgents) {
  Build({0, 5, 8});
  uint64_t qid = nodes_[0]
                    ->shipping()
                    .IssueDirectSearch("needle", ShippingMode::kAlwaysCode)
                    .value();
  sim_.RunUntilIdle();
  const QuerySession* session = nodes_[0]->FindSession(qid);
  EXPECT_EQ(session->total_indicated(), 2u);
  EXPECT_EQ(nodes_[1]->agent_runtime().agents_executed(), 1u);
  EXPECT_EQ(nodes_[2]->agent_runtime().agents_executed(), 1u);
  // Hints learned from result metadata too.
  EXPECT_EQ(nodes_[0]->shipping().StoreSizeHint(nodes_[1]->node()), 5u);
}

TEST_F(ShippingFixture, AdaptiveDefaultsToCodeThenLearns) {
  Build({0, 3, 400});
  // Round 1: no hints — both peers interrogated by agent.
  uint64_t q1 = nodes_[0]
                    ->shipping()
                    .IssueDirectSearch("needle", ShippingMode::kAdaptive)
                    .value();
  sim_.RunUntilIdle();
  EXPECT_EQ(nodes_[1]->agent_runtime().agents_executed(), 1u);
  EXPECT_EQ(nodes_[2]->agent_runtime().agents_executed(), 1u);
  EXPECT_EQ(nodes_[0]->FindSession(q1)->total_indicated(), 2u);

  // Round 2: the 3-object store is now known to be tiny -> data shipped;
  // the 400-object store stays on code shipping.
  uint64_t q2 = nodes_[0]
                    ->shipping()
                    .IssueDirectSearch("needle", ShippingMode::kAdaptive)
                    .value();
  sim_.RunUntilIdle();
  EXPECT_EQ(nodes_[1]->agent_runtime().agents_executed(), 1u)
      << "tiny store should be data-shipped on round 2";
  EXPECT_EQ(nodes_[2]->agent_runtime().agents_executed(), 2u)
      << "large store should still be code-shipped";
  EXPECT_EQ(nodes_[0]->FindSession(q2)->total_indicated(), 2u);
}

TEST_F(ShippingFixture, DataShippingMovesMoreBytes) {
  Build({0, 50});
  // Pre-load the agent class so code shipping is measured warm (the
  // one-off 16 KB class transfer is not what this test compares).
  for (const auto& node : nodes_) {
    infra_->code_cache.Load(node->node(), kSearchAgentClass);
  }
  uint64_t before = network_->total_wire_bytes();
  nodes_[0]->shipping().IssueDirectSearch("needle", ShippingMode::kAlwaysData)
      .value();
  sim_.RunUntilIdle();
  uint64_t data_bytes = network_->total_wire_bytes() - before;

  before = network_->total_wire_bytes();
  nodes_[0]->shipping().IssueDirectSearch("needle", ShippingMode::kAlwaysCode)
      .value();
  sim_.RunUntilIdle();
  uint64_t code_bytes = network_->total_wire_bytes() - before;
  EXPECT_GT(data_bytes, code_bytes * 3)
      << "pulling a 50-object store must dwarf agent traffic";
}

}  // namespace
}  // namespace bestpeer::core
