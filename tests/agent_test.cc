#include <gtest/gtest.h>

#include <map>
#include <set>

#include "agent/agent_message.h"
#include "agent/agent_registry.h"
#include "agent/agent_runtime.h"
#include "net/dispatcher.h"
#include "net/sim_transport.h"
#include "sim/simulator.h"
#include "util/wire.h"

namespace bestpeer::agent {
namespace {

// A test agent that counts its visits by reporting to the origin node.
constexpr uint32_t kVisitReportType = 0x54560001;

class VisitAgent : public Agent {
 public:
  VisitAgent() = default;
  explicit VisitAgent(std::string tag) : tag_(std::move(tag)) {}

  std::string_view class_name() const override { return "VisitAgent"; }

  Bytes SaveState() const override { return wire::Encode(tag_); }
  Status LoadState(const Bytes& state) override {
    return wire::DecodeInto(state, tag_);
  }
  Status Execute(AgentContext& ctx) override {
    ctx.ChargeCpu(Millis(1));
    BinaryWriter w;
    w.WriteU32(ctx.current_node());
    w.WriteU16(ctx.hops());
    w.WriteString(tag_);
    ctx.SendMessage(ctx.origin_node(), kVisitReportType, w.Take());
    return Status::OK();
  }

 private:
  std::string tag_;
};

class NullHost : public AgentHost {
 public:
  explicit NullHost(NodeId node) : node_(node) {}
  storm::Storm* storage() override { return nullptr; }
  NodeId host_node() const override { return node_; }

 private:
  NodeId node_;
};

// ---------------------------------------------------------------- registry

TEST(AgentRegistryTest, RegisterCreateAndCodeSize) {
  AgentRegistry registry;
  ASSERT_TRUE(registry
                  .Register("VisitAgent", 1234,
                            []() { return std::make_unique<VisitAgent>(); })
                  .ok());
  EXPECT_TRUE(registry.Contains("VisitAgent"));
  EXPECT_EQ(registry.CodeSize("VisitAgent").value(), 1234u);
  auto agent = registry.Create("VisitAgent");
  ASSERT_TRUE(agent.ok());
  EXPECT_EQ(agent.value()->class_name(), "VisitAgent");
  EXPECT_FALSE(registry.Create("Other").ok());
  EXPECT_FALSE(registry.CodeSize("Other").ok());
  EXPECT_TRUE(registry
                  .Register("VisitAgent", 1,
                            []() { return std::make_unique<VisitAgent>(); })
                  .IsAlreadyExists());
}

TEST(CodeCacheTest, TracksResidency) {
  CodeCache cache;
  EXPECT_FALSE(cache.Has(1, "A"));
  cache.Load(1, "A");
  EXPECT_TRUE(cache.Has(1, "A"));
  EXPECT_FALSE(cache.Has(2, "A"));
  cache.Load(1, "B");
  EXPECT_EQ(cache.total_loaded(), 2u);
  cache.EvictNode(1);
  EXPECT_FALSE(cache.Has(1, "A"));
}

// ---------------------------------------------------------------- message

TEST(AgentMessageTest, RoundTrip) {
  AgentMessage m;
  m.agent_id = 99;
  m.class_name = "VisitAgent";
  m.origin = 3;
  m.ttl = 5;
  m.hops = 2;
  m.state = Bytes{1, 2, 3};
  auto back = AgentMessage::Decode(m.Encode()).value();
  EXPECT_EQ(back.agent_id, 99u);
  EXPECT_EQ(back.class_name, "VisitAgent");
  EXPECT_EQ(back.origin, 3u);
  EXPECT_EQ(back.ttl, 5);
  EXPECT_EQ(back.hops, 2);
  EXPECT_EQ(back.state, (Bytes{1, 2, 3}));
}

TEST(AgentMessageTest, RejectsTrailingBytes) {
  AgentMessage m;
  m.class_name = "X";
  Bytes encoded = m.Encode();
  encoded.push_back(0);
  EXPECT_FALSE(AgentMessage::Decode(encoded).ok());
}

TEST(AgentMessageTest, RejectsTruncationAtEveryCut) {
  AgentMessage m;
  m.agent_id = 7;
  m.class_name = "StormSearchAgent";
  m.origin = 2;
  m.ttl = 3;
  m.hops = 1;
  m.state = Bytes{1, 2, 3, 4, 5};
  Bytes encoded = m.Encode();
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    Bytes truncated(encoded.begin(), encoded.begin() + cut);
    EXPECT_FALSE(AgentMessage::Decode(truncated).ok()) << "cut at " << cut;
  }
}

TEST(AgentMessageTest, RejectsCorruptedLengthPrefixes) {
  AgentMessage m;
  m.class_name = "A";
  m.state = Bytes{9};
  Bytes encoded = m.Encode();
  // The class-name length prefix follows the u64 agent id. Inflating it
  // makes the string run past the end of the buffer.
  Bytes bad_name = encoded;
  bad_name[8] = 0xFF;
  EXPECT_FALSE(AgentMessage::Decode(bad_name).ok());
  // Corrupting the final state-length prefix the same way.
  Bytes bad_state = encoded;
  bad_state[encoded.size() - 2] = 0xFF;
  EXPECT_FALSE(AgentMessage::Decode(bad_state).ok());
}

TEST(AgentMessageTest, RejectsEmptyAndGarbageBuffers) {
  EXPECT_FALSE(AgentMessage::Decode(Bytes{}).ok());
  EXPECT_FALSE(AgentMessage::Decode(Bytes(3, 0xAB)).ok());
}

// ---------------------------------------------------------------- runtime

/// Fixture wiring a line overlay 0-1-2-3-4 of agent runtimes, with visit
/// reports collected at every node.
class AgentRuntimeTest : public ::testing::Test {
 protected:
  static constexpr size_t kNodes = 5;

  void SetUp() override {
    network_ = std::make_unique<sim::SimNetwork>(&sim_, sim::NetworkOptions{});
    fleet_ = std::make_unique<net::SimTransportFleet>(network_.get());
    ASSERT_TRUE(registry_
                    .Register("VisitAgent", 16 * 1024,
                              []() { return std::make_unique<VisitAgent>(); })
                    .ok());
    for (size_t i = 0; i < kNodes; ++i) {
      net::SimTransport* transport = fleet_->AddNode();
      NodeId id = transport->local();
      ids_.push_back(id);
      transports_.push_back(transport);
      hosts_.push_back(std::make_unique<NullHost>(id));
      dispatchers_.push_back(std::make_unique<net::Dispatcher>(transport));
    }
    for (size_t i = 0; i < kNodes; ++i) {
      size_t idx = i;
      AgentRuntimeOptions options;
      runtimes_.push_back(std::make_unique<AgentRuntime>(
          transports_[i], &registry_, &cache_, hosts_[i].get(),
          [this, idx]() { return neighbors_[idx]; }, options));
      dispatchers_[i]->Register(
          kAgentTransferType, [this, idx](const net::Message& m) {
            runtimes_[idx]->OnMessage(m).ok();
          });
      dispatchers_[i]->Register(
          kVisitReportType, [this, idx](const net::Message& m) {
            // Reports are compressed by the runtime codec (null here).
            BinaryReader r(m.payload);
            uint32_t node = r.ReadU32().value();
            uint16_t hops = r.ReadU16().value();
            reports_[idx].emplace_back(node, hops);
          });
    }
    neighbors_.resize(kNodes);
    // Line overlay.
    for (size_t i = 0; i < kNodes; ++i) {
      if (i > 0) neighbors_[i].push_back(ids_[i - 1]);
      if (i + 1 < kNodes) neighbors_[i].push_back(ids_[i + 1]);
    }
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::SimNetwork> network_;
  std::unique_ptr<net::SimTransportFleet> fleet_;
  std::vector<net::SimTransport*> transports_;
  AgentRegistry registry_;
  CodeCache cache_;
  std::vector<NodeId> ids_;
  std::vector<std::unique_ptr<NullHost>> hosts_;
  std::vector<std::unique_ptr<net::Dispatcher>> dispatchers_;
  std::vector<std::unique_ptr<AgentRuntime>> runtimes_;
  std::vector<std::vector<NodeId>> neighbors_;
  std::map<size_t, std::vector<std::pair<uint32_t, uint16_t>>> reports_;
};

TEST_F(AgentRuntimeTest, PropagatesAlongLineWithHops) {
  VisitAgent agent("t");
  ASSERT_TRUE(runtimes_[0]->Launch(1, agent, /*ttl=*/10, neighbors_[0]).ok());
  sim_.RunUntilIdle();
  // Origin (index 0) receives one report from each other node.
  auto& reports = reports_[0];
  ASSERT_EQ(reports.size(), kNodes - 1);
  std::map<uint32_t, uint16_t> hops_by_node;
  for (auto& [node, hops] : reports) hops_by_node[node] = hops;
  EXPECT_EQ(hops_by_node[ids_[1]], 1);
  EXPECT_EQ(hops_by_node[ids_[2]], 2);
  EXPECT_EQ(hops_by_node[ids_[3]], 3);
  EXPECT_EQ(hops_by_node[ids_[4]], 4);
}

TEST_F(AgentRuntimeTest, TtlLimitsReach) {
  VisitAgent agent("t");
  ASSERT_TRUE(runtimes_[0]->Launch(1, agent, /*ttl=*/2, neighbors_[0]).ok());
  sim_.RunUntilIdle();
  // TTL 2: reaches nodes 1 and 2 only.
  EXPECT_EQ(reports_[0].size(), 2u);
}

TEST_F(AgentRuntimeTest, TtlZeroNeverLeaves) {
  VisitAgent agent("t");
  ASSERT_TRUE(runtimes_[0]->Launch(1, agent, /*ttl=*/0, neighbors_[0]).ok());
  sim_.RunUntilIdle();
  EXPECT_TRUE(reports_[0].empty());
  EXPECT_EQ(network_->total_wire_bytes(), 0u);
}

TEST_F(AgentRuntimeTest, DuplicateDropOnCycles) {
  // Make the overlay a triangle among 0,1,2.
  neighbors_[0] = {ids_[1], ids_[2]};
  neighbors_[1] = {ids_[0], ids_[2]};
  neighbors_[2] = {ids_[0], ids_[1]};
  VisitAgent agent("t");
  ASSERT_TRUE(runtimes_[0]->Launch(1, agent, /*ttl=*/10, neighbors_[0]).ok());
  sim_.RunUntilIdle();
  // Each of nodes 1 and 2 executes exactly once despite the cycle.
  EXPECT_EQ(reports_[0].size(), 2u);
  EXPECT_GE(runtimes_[1]->duplicates_dropped() +
                runtimes_[2]->duplicates_dropped(),
            1u);
}

TEST_F(AgentRuntimeTest, SeenTableExpiryForgetsOldAgents) {
  // Rebuild the runtimes with a tiny dup-table expiry; the dispatcher
  // hooks read runtimes_[idx], so they pick up the replacements.
  AgentRuntimeOptions options;
  options.seen_expiry = Micros(1);
  for (size_t i = 0; i < kNodes; ++i) {
    size_t idx = i;
    runtimes_[i] = std::make_unique<AgentRuntime>(
        transports_[i], &registry_, &cache_, hosts_[i].get(),
        [this, idx]() { return neighbors_[idx]; }, options);
  }
  // Triangle among 0,1,2: nodes 1 and 2 cross-forward, so each receives
  // the other's clone a few ms after its own first sighting.
  neighbors_[0] = {ids_[1], ids_[2]};
  neighbors_[1] = {ids_[0], ids_[2]};
  neighbors_[2] = {ids_[0], ids_[1]};
  VisitAgent agent("t");
  ASSERT_TRUE(runtimes_[0]->Launch(1, agent, /*ttl=*/10, neighbors_[0]).ok());
  sim_.RunUntilIdle();
  // The cross-forwarded copies arrive after the 1 µs expiry, so instead
  // of duplicate drops (compare DuplicateDropOnCycles) both nodes have
  // forgotten the agent and execute it a second time.
  EXPECT_EQ(reports_[0].size(), 4u);  // Nodes 1 and 2, twice each.
  EXPECT_EQ(runtimes_[1]->duplicates_dropped(), 0u);
  EXPECT_EQ(runtimes_[2]->duplicates_dropped(), 0u);
  EXPECT_GE(runtimes_[1]->seen_expired() + runtimes_[2]->seen_expired(), 2u);
}

TEST_F(AgentRuntimeTest, SeenTableKeepsTheNewestSightings) {
  // Node 0 sends more agents straight to node 1 (TTL 1: no onward
  // clones) than node 1's duplicate table keeps.
  const uint64_t n = AgentRuntime::kSeenCapacity + 10;
  VisitAgent agent("t");
  for (uint64_t id = 1; id <= n; ++id) {
    ASSERT_TRUE(runtimes_[0]->Launch(id, agent, 1, {ids_[1]}).ok());
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(runtimes_[1]->agents_executed(), n);
  EXPECT_EQ(runtimes_[1]->seen_size(), AgentRuntime::kSeenCapacity);
  EXPECT_EQ(runtimes_[0]->seen_size(), AgentRuntime::kSeenCapacity);
  // A clone of a retained agent is still a duplicate...
  ASSERT_TRUE(runtimes_[0]->Launch(n, agent, 1, {ids_[1]}).ok());
  sim_.RunUntilIdle();
  EXPECT_EQ(runtimes_[1]->duplicates_dropped(), 1u);
  EXPECT_EQ(runtimes_[1]->agents_executed(), n);
  // ...while the oldest was forgotten, silently, and runs again.
  ASSERT_TRUE(runtimes_[0]->Launch(1, agent, 1, {ids_[1]}).ok());
  sim_.RunUntilIdle();
  EXPECT_EQ(runtimes_[1]->agents_executed(), n + 1);
  EXPECT_EQ(runtimes_[1]->seen_expired(), 0u);
  EXPECT_EQ(runtimes_[1]->seen_size(), AgentRuntime::kSeenCapacity);
}

TEST_F(AgentRuntimeTest, CodeShippedOnlyOnFirstVisit) {
  VisitAgent agent("a");
  ASSERT_TRUE(runtimes_[0]->Launch(1, agent, 10, neighbors_[0]).ok());
  sim_.RunUntilIdle();
  uint64_t bytes_first = network_->total_wire_bytes();
  // Second launch: classes are cached everywhere, so much less traffic.
  VisitAgent agent2("b");
  ASSERT_TRUE(runtimes_[0]->Launch(2, agent2, 10, neighbors_[0]).ok());
  sim_.RunUntilIdle();
  uint64_t bytes_second = network_->total_wire_bytes() - bytes_first;
  EXPECT_LT(bytes_second, bytes_first / 2)
      << "cached classes should not be re-shipped";
  for (size_t i = 0; i < kNodes; ++i) {
    EXPECT_TRUE(cache_.Has(ids_[i], "VisitAgent"));
  }
}

TEST_F(AgentRuntimeTest, UnregisteredClassFailsLaunch) {
  class StrangerAgent : public VisitAgent {
   public:
    std::string_view class_name() const override { return "Stranger"; }
  };
  StrangerAgent agent;
  EXPECT_TRUE(
      runtimes_[0]->Launch(1, agent, 1, neighbors_[0]).IsFailedPrecondition());
}

TEST_F(AgentRuntimeTest, LaunchTargetsOnlySelectedNodes) {
  VisitAgent agent("t");
  // Target only node 2 (skipping neighbour 1) with ttl 1: exactly one
  // execution, no onward cloning.
  ASSERT_TRUE(runtimes_[0]->Launch(1, agent, /*ttl=*/1, {ids_[2]}).ok());
  sim_.RunUntilIdle();
  ASSERT_EQ(reports_[0].size(), 1u);
  EXPECT_EQ(reports_[0][0].first, ids_[2]);
  EXPECT_EQ(reports_[0][0].second, 1);  // Hops = 1 for a direct send.
  EXPECT_EQ(runtimes_[1]->agents_received(), 0u);
}

TEST_F(AgentRuntimeTest, LaunchWithLargerTtlClonesOnward) {
  VisitAgent agent("t");
  // Target node 1 with ttl 3: it forwards along the line to 2 and 3.
  ASSERT_TRUE(runtimes_[0]->Launch(1, agent, 3, {ids_[1]}).ok());
  sim_.RunUntilIdle();
  EXPECT_EQ(reports_[0].size(), 3u);
}

TEST_F(AgentRuntimeTest, StatsCountReceiptsAndExecutions) {
  VisitAgent agent("t");
  ASSERT_TRUE(runtimes_[0]->Launch(1, agent, 10, neighbors_[0]).ok());
  sim_.RunUntilIdle();
  EXPECT_EQ(runtimes_[1]->agents_received(), 1u);
  EXPECT_EQ(runtimes_[1]->agents_executed(), 1u);
  EXPECT_GE(runtimes_[1]->clones_sent(), 1u);
}

}  // namespace
}  // namespace bestpeer::agent
