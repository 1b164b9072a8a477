// Gossip anti-entropy plane tests: BPG1 codec hardening (round-trip,
// truncation sweep at every cut, crafted corruption), rumor convergence
// and quiescence on the simulated wire (including under seeded loss and
// partition/heal), duplicate suppression and the pull half of a round,
// lease-digest lifecycle, node-level pre-probe cache invalidation, and
// the gossip-off bit-identical schedule contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/node.h"
#include "gossip/gossip.h"
#include "gossip/gossip_frame.h"
#include "net/sim_transport.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/bytes.h"
#include "workload/experiment.h"
#include "workload/topology.h"

namespace bestpeer::gossip {
namespace {

// --- BPG1 codec -----------------------------------------------------------

GossipFrame SampleFrame() {
  GossipFrame frame;
  frame.sender = 7;
  frame.round = 42;
  frame.items.push_back(
      {ItemKind::kIndexEpoch, /*origin=*/3, /*subject=*/0, /*holder=*/0,
       /*version=*/9, /*payload=*/9});
  frame.items.push_back(
      {ItemKind::kLeaseGrant, /*origin=*/3, /*subject=*/0xABCDEF, /*holder=*/5,
       /*version=*/2, /*payload=*/9});
  frame.items.push_back(
      {ItemKind::kLeaseExpire, /*origin=*/5, /*subject=*/0xABCDEF,
       /*holder=*/5, /*version=*/4, /*payload=*/1});
  return frame;
}

TEST(GossipFrameTest, RoundTripAllKindsAndResponseFlag) {
  GossipFrame frame = SampleFrame();
  frame.flags = GossipFrame::kFlagResponse;

  auto decoded = DecodeGossipFrame(EncodeGossipFrame(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->sender, 7u);
  EXPECT_EQ(decoded->round, 42u);
  EXPECT_EQ(decoded->flags, GossipFrame::kFlagResponse);
  ASSERT_EQ(decoded->items.size(), frame.items.size());
  for (size_t i = 0; i < frame.items.size(); ++i) {
    EXPECT_EQ(decoded->items[i].kind, frame.items[i].kind) << "item " << i;
    EXPECT_EQ(decoded->items[i].origin, frame.items[i].origin) << "item " << i;
    EXPECT_EQ(decoded->items[i].subject, frame.items[i].subject)
        << "item " << i;
    EXPECT_EQ(decoded->items[i].holder, frame.items[i].holder) << "item " << i;
    EXPECT_EQ(decoded->items[i].version, frame.items[i].version)
        << "item " << i;
    EXPECT_EQ(decoded->items[i].payload, frame.items[i].payload)
        << "item " << i;
  }
}

TEST(GossipFrameTest, EveryTruncationFailsToDecode) {
  const Bytes wire = EncodeGossipFrame(SampleFrame());
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    Bytes truncated(wire.begin(), wire.begin() + cut);
    EXPECT_FALSE(DecodeGossipFrame(truncated).ok())
        << "decode accepted a frame cut at byte " << cut;
  }
}

TEST(GossipFrameTest, TrailingBytesRejected) {
  Bytes wire = EncodeGossipFrame(SampleFrame());
  wire.push_back(0x00);
  EXPECT_FALSE(DecodeGossipFrame(wire).ok());
}

/// Hand-writes a frame header (everything up to the item count) so each
/// corruption case states exactly which field it poisons.
void WriteHeader(BinaryWriter* w, uint32_t magic, uint16_t version,
                 uint8_t flags) {
  w->WriteU32(magic);
  w->WriteU16(version);
  w->WriteU32(/*sender=*/1);
  w->WriteU64(/*round=*/1);
  w->WriteU8(flags);
}

void WriteItem(BinaryWriter* w, uint8_t kind) {
  w->WriteU8(kind);
  w->WriteU32(/*origin=*/1);
  w->WriteU64(/*subject=*/0);
  w->WriteU32(/*holder=*/0);
  w->WriteU64(/*version=*/1);
  w->WriteU64(/*payload=*/1);
}

TEST(GossipFrameTest, CraftedCorruptionRejected) {
  {
    BinaryWriter w;  // Bad magic.
    WriteHeader(&w, 0xDEADBEEF, kGossipFrameVersion, 0);
    w.WriteVarint(0);
    EXPECT_FALSE(DecodeGossipFrame(w.buffer()).ok());
  }
  {
    BinaryWriter w;  // Unknown format version.
    WriteHeader(&w, kGossipFrameMagic, kGossipFrameVersion + 1, 0);
    w.WriteVarint(0);
    EXPECT_FALSE(DecodeGossipFrame(w.buffer()).ok());
  }
  {
    BinaryWriter w;  // Unknown flag bit beyond kFlagResponse.
    WriteHeader(&w, kGossipFrameMagic, kGossipFrameVersion, 0x02);
    w.WriteVarint(0);
    EXPECT_FALSE(DecodeGossipFrame(w.buffer()).ok());
  }
  {
    BinaryWriter w;  // Unknown item kind.
    WriteHeader(&w, kGossipFrameMagic, kGossipFrameVersion, 0);
    w.WriteVarint(1);
    WriteItem(&w, /*kind=*/9);
    EXPECT_FALSE(DecodeGossipFrame(w.buffer()).ok());
  }
  {
    BinaryWriter w;  // Item count past the corruption limit: must be an
                     // error, never an allocation attempt.
    WriteHeader(&w, kGossipFrameMagic, kGossipFrameVersion, 0);
    w.WriteVarint(kGossipFrameMaxItems + 1);
    EXPECT_FALSE(DecodeGossipFrame(w.buffer()).ok());
  }
}

// --- raw agents on the simulated wire -------------------------------------

std::vector<std::pair<size_t, size_t>> Star(size_t count) {
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t i = 1; i < count; ++i) edges.emplace_back(0, i);
  return edges;
}

std::vector<std::pair<size_t, size_t>> FullMesh(size_t count) {
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t i = 0; i < count; ++i)
    for (size_t j = i + 1; j < count; ++j) edges.emplace_back(i, j);
  return edges;
}

class GossipAgentFixture : public ::testing::Test {
 protected:
  /// Must run before Build: the injector hooks SimNetwork::Send.
  void WithFaults(const sim::FaultOptions& options) {
    injector_ = sim_.EnableFaults(options);
  }

  void Build(size_t count,
             const std::vector<std::pair<size_t, size_t>>& edges,
             GossipOptions options = {}) {
    network_ =
        std::make_unique<sim::SimNetwork>(&sim_, sim::NetworkOptions{});
    fleet_ = std::make_unique<net::SimTransportFleet>(network_.get());
    peers_.resize(count);
    for (size_t i = 0; i < count; ++i) {
      net::SimTransport* transport = fleet_->AddNode();
      ids_.push_back(transport->local());
      auto agent = std::make_unique<GossipAgent>(transport, options);
      GossipAgent* raw = agent.get();
      transport->SetHandler([raw](const net::Message& msg) {
        if (msg.type == kGossipMsgType) raw->OnMessage(msg);
      });
      agents_.push_back(std::move(agent));
    }
    for (const auto& [a, b] : edges) {
      peers_[a].push_back(ids_[b]);
      peers_[b].push_back(ids_[a]);
    }
    for (size_t i = 0; i < count; ++i) {
      const std::vector<NodeId>* mine = &peers_[i];
      agents_[i]->SetPeerProvider([mine] { return *mine; });
    }
  }

  /// An extra transport that records every frame it receives — the
  /// "remote prober" used to inject crafted frames at an agent.
  net::SimTransport* AddProbe(std::vector<net::Message>* sink) {
    net::SimTransport* transport = fleet_->AddNode();
    transport->SetHandler(
        [sink](const net::Message& msg) { sink->push_back(msg); });
    return transport;
  }

  sim::Simulator sim_;
  sim::FaultInjector* injector_ = nullptr;
  std::unique_ptr<sim::SimNetwork> network_;
  std::unique_ptr<net::SimTransportFleet> fleet_;
  std::vector<std::unique_ptr<GossipAgent>> agents_;
  std::vector<std::vector<NodeId>> peers_;
  std::vector<NodeId> ids_;
};

TEST_F(GossipAgentFixture, StarConvergesAndGoesQuiescent) {
  // On a star every rumor funnels through the hub, so the hub's fanout
  // must cover its leaves: fanout 2 at hot_rounds 3 draws only 6 of the
  // 4 leaves' shuffle slots and can leave a leaf unvisited before the
  // rumors go cold (epidemic coverage, not a protocol defect).
  GossipOptions options;
  options.fanout = 4;
  Build(5, Star(5), options);
  for (size_t i = 0; i < agents_.size(); ++i) {
    agents_[i]->AnnounceEpoch(10 * (i + 1));
  }
  sim_.RunUntilIdle();

  for (size_t i = 0; i < agents_.size(); ++i) {
    for (size_t j = 0; j < agents_.size(); ++j) {
      EXPECT_EQ(agents_[i]->EpochOf(ids_[j]), 10 * (j + 1))
          << "agent " << i << " missing epoch of node " << j;
    }
    EXPECT_TRUE(agents_[i]->quiescent())
        << "agent " << i << " left a round timer armed after convergence";
    EXPECT_EQ(agents_[i]->decode_errors(), 0u);
  }
  EXPECT_GT(agents_[0]->frames_sent(), 0u);
}

TEST_F(GossipAgentFixture, DuplicateAndStaleVersionsSuppressed) {
  Build(2, {{0, 1}});
  agents_[0]->AnnounceEpoch(5);
  sim_.RunUntilIdle();
  ASSERT_EQ(agents_[1]->EpochOf(ids_[0]), 5u);

  std::vector<net::Message> sink;
  net::SimTransport* probe = AddProbe(&sink);
  const uint64_t applied_before = agents_[0]->items_applied();
  const uint64_t duplicates_before = agents_[0]->duplicates();

  // A stale and an exactly-current replay of agent 0's own epoch, flagged
  // as a response so no pull-back is owed.
  GossipFrame replay;
  replay.sender = probe->local();
  replay.flags = GossipFrame::kFlagResponse;
  replay.items.push_back(
      {ItemKind::kIndexEpoch, ids_[0], 0, 0, /*version=*/3, /*payload=*/3});
  replay.items.push_back(
      {ItemKind::kIndexEpoch, ids_[0], 0, 0, /*version=*/5, /*payload=*/5});
  probe->Send(ids_[0], kGossipMsgType, EncodeGossipFrame(replay));
  sim_.RunUntilIdle();

  EXPECT_EQ(agents_[0]->EpochOf(ids_[0]), 5u)
      << "a stale replay must never roll the version vector back";
  EXPECT_EQ(agents_[0]->items_applied(), applied_before);
  EXPECT_EQ(agents_[0]->duplicates(), duplicates_before + 2);
  EXPECT_TRUE(sink.empty()) << "a response frame must not earn a reply";
}

TEST_F(GossipAgentFixture, PullHalfCorrectsStaleSender) {
  Build(2, {{0, 1}});
  agents_[0]->AnnounceEpoch(5);
  agents_[0]->AnnounceLeaseGrant(/*object_id=*/0xAB, /*holder=*/ids_[1],
                                 /*source_epoch=*/5);
  sim_.RunUntilIdle();

  // A push (not a response) offering a stale epoch: the agent owes the
  // sender its newer version of that key — and only that key.
  std::vector<net::Message> sink;
  net::SimTransport* probe = AddProbe(&sink);
  GossipFrame push;
  push.sender = probe->local();
  push.items.push_back(
      {ItemKind::kIndexEpoch, ids_[0], 0, 0, /*version=*/3, /*payload=*/3});
  probe->Send(ids_[0], kGossipMsgType, EncodeGossipFrame(push));
  sim_.RunUntilIdle();

  ASSERT_EQ(sink.size(), 1u) << "one push earns exactly one pull-back";
  auto reply = DecodeGossipFrame(sink[0].payload);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->flags, GossipFrame::kFlagResponse);
  ASSERT_EQ(reply->items.size(), 1u)
      << "the pull-back covers offered keys only, never unrelated state";
  EXPECT_EQ(reply->items[0].kind, ItemKind::kIndexEpoch);
  EXPECT_EQ(reply->items[0].origin, ids_[0]);
  EXPECT_EQ(reply->items[0].version, 5u);
}

TEST_F(GossipAgentFixture, LeaseDigestLifecyclePropagates) {
  Build(3, {{0, 1}, {1, 2}});
  agents_[0]->AnnounceLeaseGrant(/*object_id=*/0xBEEF, /*holder=*/ids_[2],
                                 /*source_epoch=*/1);
  sim_.RunUntilIdle();
  for (size_t i = 0; i < agents_.size(); ++i) {
    EXPECT_TRUE(agents_[i]->LeaseLive(0xBEEF, ids_[2])) << "agent " << i;
  }

  // The holder's expiry digest ends the lease everywhere.
  agents_[2]->AnnounceLeaseExpire(/*object_id=*/0xBEEF, /*generation=*/1);
  sim_.RunUntilIdle();
  for (size_t i = 0; i < agents_.size(); ++i) {
    EXPECT_FALSE(agents_[i]->LeaseLive(0xBEEF, ids_[2])) << "agent " << i;
    EXPECT_TRUE(agents_[i]->quiescent()) << "agent " << i;
  }
}

TEST_F(GossipAgentFixture, ConvergesUnderSeededLoss) {
  sim::FaultOptions faults;
  faults.seed = 7;
  faults.message_loss = 0.25;
  WithFaults(faults);

  GossipOptions options;
  options.hot_rounds = 8;  // Extra redundancy against the lossy wire.
  Build(5, FullMesh(5), options);
  for (size_t i = 0; i < agents_.size(); ++i) {
    agents_[i]->AnnounceEpoch(100 + i);
  }
  sim_.RunUntilIdle();

  for (size_t i = 0; i < agents_.size(); ++i) {
    for (size_t j = 0; j < agents_.size(); ++j) {
      EXPECT_EQ(agents_[i]->EpochOf(ids_[j]), 100 + j)
          << "agent " << i << " failed to converge on node " << j
          << " despite hot-round redundancy";
    }
    EXPECT_EQ(agents_[i]->decode_errors(), 0u);
  }
}

TEST_F(GossipAgentFixture, PartitionHealsViaReannounce) {
  WithFaults(sim::FaultOptions{});  // Zero probabilities: partitions only.
  Build(4, FullMesh(4));
  injector_->Partition({ids_[0], ids_[1]}, {ids_[2], ids_[3]});

  agents_[0]->AnnounceEpoch(5);
  sim_.RunUntilIdle();
  EXPECT_EQ(agents_[1]->EpochOf(ids_[0]), 5u);
  EXPECT_EQ(agents_[2]->EpochOf(ids_[0]), 0u)
      << "the cut must stop the rumor";
  EXPECT_EQ(agents_[3]->EpochOf(ids_[0]), 0u);

  injector_->Heal();
  agents_[0]->AnnounceEpoch(6);  // The next bump re-arms the rounds.
  sim_.RunUntilIdle();
  for (size_t i = 0; i < agents_.size(); ++i) {
    EXPECT_EQ(agents_[i]->EpochOf(ids_[0]), 6u)
        << "agent " << i << " still stale after heal + re-announce";
  }
}

TEST_F(GossipAgentFixture, IsolatedRumorSurvivesUntilPeersArrive) {
  Build(2, /*edges=*/{});  // Both nodes start with no direct peers.
  agents_[0]->AnnounceEpoch(7);
  sim_.RunUntilIdle();
  EXPECT_EQ(agents_[0]->frames_sent(), 0u);
  EXPECT_EQ(agents_[1]->EpochOf(ids_[0]), 0u);

  peers_[0].push_back(ids_[1]);
  peers_[1].push_back(ids_[0]);
  agents_[0]->NotifyPeersChanged();
  sim_.RunUntilIdle();
  EXPECT_EQ(agents_[1]->EpochOf(ids_[0]), 7u)
      << "the pending rumor must spread once a peer shows up";
  EXPECT_TRUE(agents_[0]->quiescent());
}

}  // namespace
}  // namespace bestpeer::gossip

// --- node-level: gossiped epochs beat the probe ---------------------------

namespace bestpeer::core {
namespace {

class GossipNodeFixture : public ::testing::Test {
 protected:
  void Build(const BestPeerConfig& config, const std::vector<size_t>& matches,
             const std::vector<std::pair<size_t, size_t>>& edges) {
    network_ =
        std::make_unique<sim::SimNetwork>(&sim_, sim::NetworkOptions{});
    fleet_ = std::make_unique<net::SimTransportFleet>(network_.get());
    infra_ = std::make_unique<SharedInfra>();
    for (size_t i = 0; i < matches.size(); ++i) {
      auto node =
          BestPeerNode::Create(fleet_->AddNode(), infra_.get(), config)
              .value();
      ASSERT_TRUE(node->InitStorage({}).ok());
      for (size_t m = 0; m < matches[i]; ++m) {
        std::string text = "needle gossip data";
        text.resize(256, ' ');
        Bytes content(text.begin(), text.end());
        ids_[i].push_back((static_cast<uint64_t>(i) << 24) | m);
        ASSERT_TRUE(node->ShareObject(ids_[i].back(), content).ok());
      }
      nodes_.push_back(std::move(node));
    }
    for (const auto& [a, b] : edges) {
      nodes_[a]->AddDirectPeerLocal(nodes_[b]->node());
      nodes_[b]->AddDirectPeerLocal(nodes_[a]->node());
    }
  }

  const QuerySession* Query() {
    uint64_t query_id = nodes_[0]->IssueSearch("needle").value();
    sim_.RunUntilIdle();
    return nodes_[0]->FindSession(query_id);
  }

  uint64_t TotalStaleProbes() const {
    uint64_t total = 0;
    for (const auto& node : nodes_) {
      total += node->cache_probe()->cache_stale_probes();
    }
    return total;
  }

  uint64_t TotalGossipInvalidations() const {
    uint64_t total = 0;
    for (const auto& node : nodes_) {
      total += node->cache_probe()->gossip_invalidations();
    }
    return total;
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::SimNetwork> network_;
  std::unique_ptr<net::SimTransportFleet> fleet_;
  std::unique_ptr<SharedInfra> infra_;
  std::vector<std::unique_ptr<BestPeerNode>> nodes_;
  std::map<size_t, std::vector<storm::ObjectId>> ids_;
};

BestPeerConfig GossipCacheConfig(bool gossip) {
  BestPeerConfig config;
  config.max_direct_peers = 4;
  config.enable_result_cache = true;
  config.enable_gossip = gossip;
  return config;
}

/// The tentpole contract at node level: with gossip on, an epoch bump
/// reaches cache holders before the next probe, so the stale entry is
/// dropped pre-probe (gossip_invalidations) and the stale-probe round
/// trip never happens. The gossip-off control pays it.
TEST_F(GossipNodeFixture, GossipedEpochBumpInvalidatesBeforeProbe) {
  for (bool gossip : {false, true}) {
    nodes_.clear();
    ids_.clear();
    network_.reset();
    Build(GossipCacheConfig(gossip), {0, 0, 3}, {{0, 1}, {1, 2}});

    const QuerySession* warm = Query();
    ASSERT_NE(warm, nullptr);
    EXPECT_EQ(warm->unique_answers(), 3u);

    ASSERT_TRUE(nodes_[2]->UnshareObject(ids_[2][0]).ok());
    sim_.RunUntilIdle();  // Gossip rounds (if enabled) drain here.

    const QuerySession* after = Query();
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(after->unique_answers(), 2u)
        << "stale cached answer served after the unshare (gossip="
        << gossip << ")";
    if (gossip) {
      ASSERT_NE(nodes_[2]->gossip_agent(), nullptr);
      EXPECT_GT(TotalGossipInvalidations(), 0u)
          << "the epoch bump must drop the cached slice ahead of the probe";
      EXPECT_EQ(TotalStaleProbes(), 0u)
          << "with gossip on, no probe should ever find a moved epoch";
    } else {
      EXPECT_EQ(nodes_[0]->gossip_agent(), nullptr);
      EXPECT_GE(TotalStaleProbes(), 1u)
          << "the control arm must pay the stale-probe round trip";
      EXPECT_EQ(TotalGossipInvalidations(), 0u);
    }
  }
}

}  // namespace
}  // namespace bestpeer::core

// --- workload level: schedules and answers --------------------------------

namespace bestpeer::workload {
namespace {

ExperimentOptions MutatingZipfWorkload() {
  ExperimentOptions options;
  options.topology = MakeTree(7, 2);
  options.scheme = Scheme::kBps;
  options.objects_per_node = 60;
  options.object_size = 256;
  options.matches_per_node = 2;
  options.queries = 12;
  options.ttl = 16;
  options.seed = 3;
  options.query_pool = 3;
  options.query_zipf_skew = 1.2;
  options.mutate_every = 2;
  options.enable_result_cache = true;
  options.enable_replication = true;
  return options;
}

/// Gossip off must leave the schedule bit-identical no matter how the
/// gossip knobs are cranked — the flag, not the knobs, gates every code
/// path (the same contract the byte-identical baseline CI step enforces).
TEST(GossipWorkloadTest, GossipOffScheduleIsBitIdentical) {
  ExperimentOptions plain = MutatingZipfWorkload();
  auto plain_result = RunExperiment(plain);
  ASSERT_TRUE(plain_result.ok()) << plain_result.status().ToString();

  ExperimentOptions cranked = plain;
  cranked.enable_gossip = false;
  cranked.gossip_fanout = 7;
  cranked.gossip_interval = Millis(1);
  auto cranked_result = RunExperiment(cranked);
  ASSERT_TRUE(cranked_result.ok()) << cranked_result.status().ToString();

  EXPECT_EQ(cranked_result->wire_bytes, plain_result->wire_bytes);
  ASSERT_EQ(cranked_result->queries.size(), plain_result->queries.size());
  for (size_t q = 0; q < plain_result->queries.size(); ++q) {
    EXPECT_EQ(cranked_result->queries[q].completion,
              plain_result->queries[q].completion)
        << "query " << q;
    EXPECT_EQ(cranked_result->queries[q].unique_answers,
              plain_result->queries[q].unique_answers)
        << "query " << q;
  }
  EXPECT_EQ(cranked_result->metrics.Value("gossip.frames_sent"), 0.0);
}

/// With a lossless wire, gossip changes *when* caches are invalidated but
/// never *what* a query answers: per-query answer sets match the
/// gossip-off run exactly, while the stale-probe round trips disappear.
TEST(GossipWorkloadTest, GossipOnKeepsAnswersAndKillsStaleProbes) {
  ExperimentOptions off = MutatingZipfWorkload();
  auto off_result = RunExperiment(off);
  ASSERT_TRUE(off_result.ok()) << off_result.status().ToString();

  ExperimentOptions on = off;
  on.enable_gossip = true;
  auto on_result = RunExperiment(on);
  ASSERT_TRUE(on_result.ok()) << on_result.status().ToString();

  ASSERT_EQ(on_result->queries.size(), off_result->queries.size());
  for (size_t q = 0; q < on_result->queries.size(); ++q) {
    EXPECT_EQ(on_result->queries[q].unique_answers,
              off_result->queries[q].unique_answers)
        << "gossip changed the answer set of query " << q;
  }
  EXPECT_GT(on_result->metrics.Value("core.gossip_invalidations"), 0.0);
  EXPECT_LT(on_result->metrics.Value("core.cache_stale_probes"),
            off_result->metrics.Value("core.cache_stale_probes"))
      << "pre-probe invalidation must cut stale probes";
}

}  // namespace
}  // namespace bestpeer::workload
