#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/node.h"
#include "net/sim_transport.h"
#include "sim/simulator.h"

namespace bestpeer::core {
namespace {

class ReplicationFixture : public ::testing::Test {
 protected:
  /// Line overlay of `count` nodes; node `owner` holds `matches` matching
  /// objects (ids owner<<24 | i).
  void Build(size_t count, size_t owner, size_t matches) {
    network_ =
        std::make_unique<sim::SimNetwork>(&sim_, sim::NetworkOptions{});
    fleet_ = std::make_unique<net::SimTransportFleet>(network_.get());
    infra_ = std::make_unique<SharedInfra>();
    BestPeerConfig config;
    config.max_direct_peers = 4;
    for (size_t i = 0; i < count; ++i) {
      auto node =
          BestPeerNode::Create(fleet_->AddNode(), infra_.get(), config)
              .value();
      node->InitStorage({}).ok();
      nodes_.push_back(std::move(node));
    }
    for (size_t i = 0; i + 1 < count; ++i) {
      nodes_[i]->AddDirectPeerLocal(nodes_[i + 1]->node());
      nodes_[i + 1]->AddDirectPeerLocal(nodes_[i]->node());
    }
    for (size_t m = 0; m < matches; ++m) {
      std::string text = "needle replicated data";
      Bytes content(text.begin(), text.end());
      content.resize(256, ' ');
      owner_ids_.push_back((static_cast<uint64_t>(owner) << 24) | m);
      nodes_[owner]->ShareObject(owner_ids_.back(), content).ok();
    }
  }

  /// A receiver (node 0, built from `receiver`) linked to a pusher
  /// (node 1) running the result cache and hot-answer replication with
  /// every served answer hot. The pusher holds two "alpha" objects
  /// (owner_ids_, for §6 replication) and two "needle" objects (hot_ids_,
  /// pushed with a lease when node 0 searches for "needle").
  void BuildPair(const BestPeerConfig& receiver) {
    network_ =
        std::make_unique<sim::SimNetwork>(&sim_, sim::NetworkOptions{});
    fleet_ = std::make_unique<net::SimTransportFleet>(network_.get());
    infra_ = std::make_unique<SharedInfra>();
    BestPeerConfig pusher = LeasingConfig();
    for (const BestPeerConfig& config : {receiver, pusher}) {
      nodes_.push_back(
          BestPeerNode::Create(fleet_->AddNode(), infra_.get(), config)
              .value());
      nodes_.back()->InitStorage({}).ok();
    }
    nodes_[0]->AddDirectPeerLocal(nodes_[1]->node());
    nodes_[1]->AddDirectPeerLocal(nodes_[0]->node());
    for (uint64_t m = 0; m < 4; ++m) {
      std::string text = m < 2 ? "alpha replicated data" : "needle hot data";
      text.resize(256, ' ');
      const uint64_t id = (uint64_t{1} << 24) | m;
      (m < 2 ? owner_ids_ : hot_ids_).push_back(id);
      nodes_[1]->ShareObject(id, Bytes(text.begin(), text.end())).ok();
    }
  }

  static BestPeerConfig LeasingConfig() {
    BestPeerConfig config;
    config.max_direct_peers = 4;
    config.enable_result_cache = true;
    config.enable_replication = true;
    config.replica_hot_threshold = 1;  // Every served answer is hot.
    config.replica_ttl = Seconds(10);
    return config;
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::SimNetwork> network_;
  std::unique_ptr<net::SimTransportFleet> fleet_;
  std::unique_ptr<SharedInfra> infra_;
  std::vector<std::unique_ptr<BestPeerNode>> nodes_;
  std::vector<storm::ObjectId> owner_ids_;
  std::vector<storm::ObjectId> hot_ids_;
};

TEST_F(ReplicationFixture, PushStoresCopiesAtPeers) {
  Build(3, 1, 4);
  ASSERT_TRUE(nodes_[1]->replicas().ReplicateObjects(owner_ids_).ok());
  sim_.RunUntilIdle();
  EXPECT_EQ(nodes_[0]->replicas().replicas_stored(), 4u);
  EXPECT_EQ(nodes_[2]->replicas().replicas_stored(), 4u);
  for (storm::ObjectId id : owner_ids_) {
    EXPECT_TRUE(nodes_[0]->storage()->Contains(id));
    EXPECT_TRUE(nodes_[2]->storage()->Contains(id));
  }
}

TEST_F(ReplicationFixture, RepushIsIdempotent) {
  Build(2, 1, 2);
  ASSERT_TRUE(nodes_[1]->replicas().ReplicateObjects(owner_ids_).ok());
  sim_.RunUntilIdle();
  ASSERT_TRUE(nodes_[1]->replicas().ReplicateObjects(owner_ids_).ok());
  sim_.RunUntilIdle();
  EXPECT_EQ(nodes_[0]->replicas().replicas_stored(), 2u)
      << "duplicates must be kept once";
  EXPECT_EQ(nodes_[0]->storage()->object_count(), 2u);
}

TEST_F(ReplicationFixture, ReplicateUnknownObjectFails) {
  Build(2, 1, 1);
  EXPECT_FALSE(nodes_[1]->replicas().ReplicateObjects({0xDEAD}).ok());
}

TEST_F(ReplicationFixture, QueriesDeduplicateReplicatedAnswers) {
  // Owner at the far end of a 4-line; replicate toward the base.
  Build(4, 3, 5);
  ASSERT_TRUE(nodes_[3]->replicas().ReplicateObjects(owner_ids_).ok());
  sim_.RunUntilIdle();
  // Now nodes 2 and 3 both hold the objects. A query sees 10 raw answers
  // but 5 unique ones.
  uint64_t qid = nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  const QuerySession* session = nodes_[0]->FindSession(qid);
  EXPECT_EQ(session->total_answers(), 10u);
  EXPECT_EQ(session->unique_answers(), 5u);
  EXPECT_EQ(session->responder_count(), 2u);
}

TEST_F(ReplicationFixture, ReplicasAnswerCloserAndFaster) {
  // All unique answers at the end of a 6-line; the first response
  // arrives earlier once replicas exist nearer to the base.
  Build(6, 5, 5);
  uint64_t q1 = nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  SimTime first_before =
      nodes_[0]->FindSession(q1)->responses().front().time -
      nodes_[0]->FindSession(q1)->start_time();

  ASSERT_TRUE(nodes_[5]->replicas().ReplicateObjects(owner_ids_).ok());
  sim_.RunUntilIdle();
  // Node 4 now also holds the answers; a second replication round from
  // node 4 pushes them to node 3.
  ASSERT_TRUE(nodes_[4]->replicas().ReplicateObjects(owner_ids_).ok());
  sim_.RunUntilIdle();

  uint64_t q2 = nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  const QuerySession* session = nodes_[0]->FindSession(q2);
  SimTime first_after =
      session->responses().front().time - session->start_time();
  EXPECT_LT(first_after, first_before)
      << "replicas closer to the base must answer sooner";
  EXPECT_EQ(session->unique_answers(), 5u)
      << "replication must not change the unique answer set";
}

TEST_F(ReplicationFixture, LeasingReceiverKeepsCopiesPastTtlAndPusherLoss) {
  BuildPair(LeasingConfig());
  BestPeerNode& receiver = *nodes_[0];
  ASSERT_TRUE(nodes_[1]->replicas().ReplicateObjects(owner_ids_).ok());
  ASSERT_TRUE(receiver.IssueSearch("needle").ok());
  sim_.RunUntil(Seconds(1));  // Pushes land; no lease has run out yet.
  ASSERT_GE(nodes_[1]->replicas().replica_pushes(), 1u);
  EXPECT_EQ(receiver.replicas().replicas_stored(), 4u);
  EXPECT_EQ(receiver.replicas().replica_manager()->replica_count(), 2u)
      << "only the hot push is leased";
  for (storm::ObjectId id : hot_ids_) {
    EXPECT_TRUE(receiver.replicas().replica_manager()->Tracks(id));
  }

  // The pusher goes away: its leased copies are revoked, the §6 copies
  // stay — through the lease TTL too, which has elapsed once idle.
  network_->Send(nodes_[1]->node(), receiver.node(), kPeerDisconnectType,
                 Bytes{});
  sim_.RunUntilIdle();
  EXPECT_GE(sim_.now(), LeasingConfig().replica_ttl);
  EXPECT_EQ(receiver.replicas().leases_revoked(), 2u);
  EXPECT_EQ(receiver.replicas().replicas_expired(), 0u);
  for (storm::ObjectId id : hot_ids_) {
    EXPECT_FALSE(receiver.storage()->Contains(id));
  }
  for (storm::ObjectId id : owner_ids_) {
    EXPECT_TRUE(receiver.storage()->Contains(id));
  }
}

TEST_F(ReplicationFixture, ReceiverWithoutManagerKeepsOnlyLeaselessCopies) {
  BestPeerConfig receiver_config;
  receiver_config.max_direct_peers = 4;
  // The cache arms the probe that lets the pusher's answers go hot; no
  // replication means no ReplicaManager at the receiver.
  receiver_config.enable_result_cache = true;
  BuildPair(receiver_config);
  BestPeerNode& receiver = *nodes_[0];
  ASSERT_EQ(receiver.replicas().replica_manager(), nullptr);
  ASSERT_TRUE(nodes_[1]->replicas().ReplicateObjects(owner_ids_).ok());
  ASSERT_TRUE(receiver.IssueSearch("needle").ok());
  sim_.RunUntilIdle();
  ASSERT_GE(nodes_[1]->replicas().replica_pushes(), 1u);
  EXPECT_EQ(receiver.replicas().replicas_stored(), 2u);
  for (storm::ObjectId id : owner_ids_) {
    EXPECT_TRUE(receiver.storage()->Contains(id));
  }
  for (storm::ObjectId id : hot_ids_) {
    EXPECT_FALSE(receiver.storage()->Contains(id))
        << "a leased push needs a manager at the receiver";
  }
}

}  // namespace
}  // namespace bestpeer::core
