// Edge cases and defensive behaviours across modules that the per-module
// suites don't reach: self-sends, storage-less nodes, empty overlays,
// protocol messages from strangers, and cost-model boundaries.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "core/compute.h"
#include "core/node.h"
#include "core/search_agent.h"
#include "net/sim_transport.h"
#include "sim/simulator.h"
#include "storm/content_summary.h"
#include "storm/keyword_index.h"
#include "storm/pager.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace bestpeer {
namespace {

// ---------------------------------------------------------------- sim

TEST(SimEdgeTest, SelfSendDelivers) {
  sim::Simulator simulator;
  sim::SimNetwork network(&simulator, sim::NetworkOptions{});
  NodeId a = network.AddNode();
  int received = 0;
  network.SetHandler(a, [&](const net::Message& m) {
    EXPECT_EQ(m.src, a);
    ++received;
  });
  network.Send(a, a, 1, Bytes(10, 0));
  simulator.RunUntilIdle();
  EXPECT_EQ(received, 1);
}

TEST(SimEdgeTest, CpuEarliestFreeTracksBacklog) {
  sim::Simulator simulator;
  sim::CpuModel cpu(&simulator, 1);
  EXPECT_EQ(cpu.EarliestFree(), 0);
  cpu.Submit(Millis(5), []() {});
  EXPECT_EQ(cpu.EarliestFree(), Millis(5));
  cpu.Submit(Millis(5), []() {});
  EXPECT_EQ(cpu.EarliestFree(), Millis(10));
  simulator.RunUntilIdle();
  EXPECT_EQ(cpu.EarliestFree(), Millis(10));  // Clamped to >= now.
}

TEST(SimEdgeTest, ZeroByteMessageStillPaysHeader) {
  sim::Simulator simulator;
  sim::NetworkOptions options;
  options.header_overhead = 64;
  sim::SimNetwork network(&simulator, options);
  NodeId a = network.AddNode();
  NodeId b = network.AddNode();
  network.SetHandler(b, [](const net::Message&) {});
  network.Send(a, b, 1, Bytes{});
  simulator.RunUntilIdle();
  EXPECT_EQ(network.node_bytes_sent(a), 64u);
}

// ---------------------------------------------------------------- storm

TEST(StormEdgeTest, FilePagerRejectsMisalignedFile) {
  std::string path = "/tmp/bp_misaligned_" + std::to_string(::getpid());
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a page multiple", f);
    std::fclose(f);
  }
  auto pager = storm::FilePager::Open(path);
  EXPECT_FALSE(pager.ok());
  EXPECT_TRUE(pager.status().IsCorruption());
  std::remove(path.c_str());
}

TEST(StormEdgeTest, KeywordIndexPostingCounts) {
  storm::KeywordIndex index;
  index.Add(1, "alpha beta alpha");
  index.Add(2, "alpha");
  EXPECT_EQ(index.PostingCount("alpha"), 2u);
  EXPECT_EQ(index.PostingCount("ALPHA"), 2u);
  EXPECT_EQ(index.PostingCount("beta"), 1u);
  EXPECT_EQ(index.PostingCount("ghost"), 0u);
  index.Remove(1);
  EXPECT_EQ(index.PostingCount("alpha"), 1u);
  EXPECT_EQ(index.PostingCount("beta"), 0u);
  EXPECT_EQ(index.keyword_count(), 1u);
}

TEST(StormEdgeTest, MemPagerOutOfRange) {
  storm::MemPager pager;
  storm::Page page;
  EXPECT_TRUE(pager.Read(0, &page).IsOutOfRange());
  EXPECT_TRUE(pager.Write(0, page).IsOutOfRange());
}

// ---------------------------------------------------------------- core

class EdgeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ =
        std::make_unique<sim::SimNetwork>(&sim_, sim::NetworkOptions{});
    fleet_ = std::make_unique<net::SimTransportFleet>(network_.get());
    infra_ = std::make_unique<core::SharedInfra>();
  }

  std::unique_ptr<core::BestPeerNode> MakeNode(
      core::BestPeerConfig config = {}) {
    return core::BestPeerNode::Create(fleet_->AddNode(), infra_.get(),
                                      config)
        .value();
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::SimNetwork> network_;
  std::unique_ptr<net::SimTransportFleet> fleet_;
  std::unique_ptr<core::SharedInfra> infra_;
};

TEST_F(EdgeFixture, SearchWithNoPeersCompletesEmpty) {
  auto loner = MakeNode();
  loner->InitStorage({}).ok();
  uint64_t qid = loner->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  const core::QuerySession* session = loner->FindSession(qid);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->total_answers(), 0u);
  EXPECT_EQ(session->completion_time(), 0);
  // Reconfiguring an empty session is a no-op, not an error.
  EXPECT_TRUE(loner->Reconfigure(qid).ok());
}

TEST_F(EdgeFixture, StoragelessPeerIsSilentlySkipped) {
  auto base = MakeNode();
  auto empty = MakeNode();  // Never calls InitStorage.
  base->InitStorage({}).ok();
  base->AddDirectPeerLocal(empty->node());
  empty->AddDirectPeerLocal(base->node());
  uint64_t qid = base->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  EXPECT_EQ(base->FindSession(qid)->responder_count(), 0u);
  EXPECT_EQ(empty->agent_runtime().agents_executed(), 1u)
      << "the agent still executes; it just finds no store";
}

TEST_F(EdgeFixture, ShareBeforeInitStorageFails) {
  auto node = MakeNode();
  EXPECT_TRUE(node->ShareObject(1, Bytes{1}).IsFailedPrecondition());
  EXPECT_TRUE(node->UnshareObject(1).IsFailedPrecondition());
  EXPECT_TRUE(node->replicas().ReplicateObjects({1}).IsFailedPrecondition());
}

TEST_F(EdgeFixture, InvalidConfigRejectedAtCreate) {
  core::BestPeerConfig bad_strategy;
  bad_strategy.strategy = "sorcery";
  EXPECT_FALSE(core::BestPeerNode::Create(fleet_->AddNode(), infra_.get(),
                                          bad_strategy)
                   .ok());
  core::BestPeerConfig bad_codec;
  bad_codec.codec = "zip2000";
  EXPECT_FALSE(core::BestPeerNode::Create(fleet_->AddNode(), infra_.get(),
                                          bad_codec)
                   .ok());
}

TEST_F(EdgeFixture, ForeignResultsAreIgnored) {
  auto a = MakeNode();
  auto b = MakeNode();
  a->InitStorage({}).ok();
  b->InitStorage({}).ok();
  // Hand-craft a result for a query `b` never issued.
  core::SearchResultMessage bogus;
  bogus.query_id = 0xDEADBEEF;
  bogus.items.push_back({1, "x", Bytes{1}});
  auto codec = MakeCodec("lzss").value();
  network_->Send(a->node(), b->node(), core::kSearchResultType,
                 codec->Compress(bogus.Encode()).value());
  sim_.RunUntilIdle();
  EXPECT_EQ(b->results_received(), 0u);
}

/// One valid encoding of every node message type that carries a payload.
std::vector<std::pair<uint32_t, Bytes>> ValidNodeMessages() {
  const std::vector<core::ResultItem> items = {{7, "obj-7", Bytes{1, 2, 3}},
                                               {9, "obj-9", Bytes{}}};
  core::SearchResultMessage result;
  result.query_id = 0x100000001;
  result.hops = 2;
  result.mode = 2;
  result.responder_object_count = 12;
  result.items = items;
  result.cache_epoch = 5;
  core::FetchRequestMessage fetch;
  fetch.query_id = 0x100000001;
  fetch.ids = {7, 9};
  core::FetchResponseMessage fetched;
  fetched.query_id = 0x100000001;
  fetched.items = items;
  core::ActiveObjectRequest aor;
  aor.request_id = 3;
  aor.object_name = "report";
  aor.access_level = 1;
  core::ActiveObjectResponse aoresp;
  aoresp.request_id = 3;
  aoresp.ok = true;
  aoresp.content = Bytes{4, 5};
  core::CacheReplicaPushMessage push;
  push.source_epoch = 4;
  push.ttl = Millis(5);
  push.items = items;
  core::UpdateNotifyMessage notify;
  notify.kind = core::UpdateNotifyMessage::Kind::kUpdated;
  notify.object_id = 7;
  storm::KeywordIndex index;
  index.Add(7, "alpha beta");
  return {
      {core::kSearchResultType, result.Encode()},
      {core::kFetchReqType, fetch.Encode()},
      {core::kFetchRespType, fetched.Encode()},
      {core::kActiveObjReqType, aor.Encode()},
      {core::kActiveObjRespType, aoresp.Encode()},
      {core::kDataShipReqType, core::DataShipRequest{0x100000001}.Encode()},
      {core::kDataShipRespType, fetched.Encode()},
      {core::kWatchReqType, core::WatchRequest{true}.Encode()},
      {core::kUpdateNotifyType, notify.Encode()},
      {core::kCacheReplicaPushType, push.Encode()},
      {core::kPeerSummaryType, storm::ContentSummary::Build(index, 3).Encode()},
  };
}

TEST_F(EdgeFixture, GarbagePayloadsDoNotCrashHandlers) {
  core::BestPeerConfig config;
  config.enable_content_summaries = true;
  config.enable_result_cache = true;
  auto a = MakeNode();
  auto b = MakeNode(config);
  b->InitStorage({}).ok();
  // Uncompressed junk stops at the codec.
  for (uint32_t type :
       {core::kSearchResultType, core::kFetchReqType, core::kFetchRespType,
        core::kActiveObjReqType, core::kActiveObjRespType,
        core::kDataShipReqType, core::kDataShipRespType,
        core::kCacheReplicaPushType, core::kWatchReqType,
        core::kUpdateNotifyType, core::kPeerSummaryType,
        agent::kAgentTransferType}) {
    network_->Send(a->node(), b->node(), type, Bytes{0xFF, 0x00, 0xAB});
  }
  // Compressed mutations of valid encodings reach every typed decoder:
  // each strict prefix, and each single-byte flip.
  auto codec = MakeCodec("lzss").value();
  size_t sent = 0;
  for (const auto& [type, valid] : ValidNodeMessages()) {
    std::vector<Bytes> mutants;
    for (size_t n = 0; n < valid.size(); ++n) {
      mutants.emplace_back(valid.begin(), valid.begin() + n);
      mutants.push_back(valid);
      mutants.back()[n] ^= 0xFF;
    }
    for (const Bytes& payload : mutants) {
      network_->Send(a->node(), b->node(), type,
                     codec->Compress(payload).value());
      ++sent;
    }
  }
  // A count that promises more elements than the payload can hold.
  for (uint32_t type : {core::kFetchReqType, core::kFetchRespType}) {
    BinaryWriter w;
    w.WriteU64(0x100000001);
    w.WriteVarint(uint64_t{1} << 62);
    network_->Send(a->node(), b->node(), type,
                   codec->Compress(w.Take()).value());
  }
  sim_.RunUntilIdle();  // Must not crash; malformed input is dropped.
  EXPECT_GT(sent, 200u);
  EXPECT_EQ(b->results_received(), 0u);
  EXPECT_EQ(b->sessions().inflight(), 0u) << "no hostile input opens a query";
}

TEST_F(EdgeFixture, IssueDirectSearchWithNoPeers) {
  auto loner = MakeNode();
  loner->InitStorage({}).ok();
  uint64_t qid = loner->shipping()
                     .IssueDirectSearch("needle", core::ShippingMode::kAdaptive)
                     .value();
  sim_.RunUntilIdle();
  EXPECT_EQ(loner->FindSession(qid)->total_indicated(), 0u);
}

// ---------------------------------------------------------------- agent state

/// An agent that ships caller-written state under a built-in class name,
/// so a test can send the cost fields a hostile sender would put there.
class RawStateAgent : public agent::Agent {
 public:
  RawStateAgent(std::string_view class_name,
                std::function<void(BinaryWriter&)> write)
      : class_name_(class_name), write_(std::move(write)) {}

  std::string_view class_name() const override { return class_name_; }
  Bytes SaveState() const override {
    BinaryWriter writer;
    write_(writer);
    return writer.Take();
  }
  Status LoadState(const Bytes&) override { return Status::OK(); }
  Status Execute(agent::AgentContext&) override { return Status::OK(); }

 private:
  std::string_view class_name_;
  std::function<void(BinaryWriter&)> write_;
};

/// SearchAgent::Wire's field order: query id, keyword, answer mode,
/// per-object cost, descriptor size.
std::function<void(BinaryWriter&)> SearchState(SimTime per_object_cost,
                                               uint64_t descriptor_bytes) {
  return [=](BinaryWriter& w) {
    w.WriteU64(7);
    w.WriteString("needle");
    w.WriteU8(static_cast<uint8_t>(core::AnswerMode::kIndicate));
    w.WriteI64(per_object_cost);
    w.WriteVarint(descriptor_bytes);
  };
}

/// ComputeAgent::Wire's field order: query id, filter, parameters,
/// per-object cost.
std::function<void(BinaryWriter&)> ComputeState(SimTime per_object_cost) {
  return [=](BinaryWriter& w) {
    w.WriteU64(7);
    w.WriteString("keep");
    w.WriteBytes(Bytes{});
    w.WriteI64(per_object_cost);
  };
}

struct AgentVisit {
  uint64_t peer_bytes_sent = 0;
  uint64_t cpu_busy_us = 0;
};

/// Launches one agent from a base node at a peer holding 10 matching
/// objects, and reports what the peer sent and the CPU the fleet charged.
AgentVisit VisitPeer(std::string_view class_name,
                     std::function<void(BinaryWriter&)> state) {
  sim::Simulator simulator;
  metrics::Registry registry;
  sim::NetworkOptions net_options;
  net_options.metrics = &registry;
  sim::SimNetwork network(&simulator, net_options);
  net::SimTransportFleet fleet(&network);
  core::SharedInfra infra;
  auto base =
      core::BestPeerNode::Create(fleet.AddNode(), &infra, {}).value();
  auto peer =
      core::BestPeerNode::Create(fleet.AddNode(), &infra, {}).value();
  EXPECT_TRUE(peer->InitStorage({}).ok());
  for (uint64_t id = 1; id <= 10; ++id) {
    EXPECT_TRUE(
        peer->ShareObject(id, ToBytes("needle " + std::to_string(id))).ok());
  }
  EXPECT_TRUE(peer->mutable_filters()
                  .Register("keep",
                            [](const Bytes& object,
                               const Bytes&) -> Result<Bytes> {
                              return object;
                            })
                  .ok());
  base->AddDirectPeerLocal(peer->node());
  peer->AddDirectPeerLocal(base->node());

  RawStateAgent agent(class_name, std::move(state));
  EXPECT_TRUE(
      base->agent_runtime().Launch(1, agent, /*ttl=*/1, {peer->node()}).ok());
  simulator.RunUntilIdle();
  EXPECT_EQ(peer->agent_runtime().agents_executed(), 1u);
  return {network.node_bytes_sent(peer->node()),
          registry.GetCounter("cpu.busy_us")->value()};
}

void ExpectSameVisit(const AgentVisit& hostile, const AgentVisit& honest) {
  EXPECT_EQ(hostile.peer_bytes_sent, honest.peer_bytes_sent);
  EXPECT_EQ(hostile.cpu_busy_us, honest.cpu_busy_us);
}

TEST(AgentStateEdgeTest, CarriedCostsDoNotSteerTheReceivingNode) {
  // The visited node charges its own cost model: an agent whose state
  // carries a 1 MiB descriptor size or a negative per-object cost gets
  // exactly the reply and the CPU an honest agent gets.
  const AgentVisit honest = VisitPeer(
      core::kSearchAgentClass, SearchState(Micros(15), /*descriptor=*/64));
  EXPECT_GT(honest.peer_bytes_sent, 0u);
  EXPECT_GT(honest.cpu_busy_us, 0u);
  ExpectSameVisit(
      VisitPeer(core::kSearchAgentClass, SearchState(Micros(15), 1 << 20)),
      honest);
  ExpectSameVisit(
      VisitPeer(core::kSearchAgentClass, SearchState(Seconds(-10), 64)),
      honest);

  const AgentVisit honest_compute =
      VisitPeer(core::kComputeAgentClass, ComputeState(Micros(30)));
  EXPECT_GT(honest_compute.peer_bytes_sent, 0u);
  ExpectSameVisit(
      VisitPeer(core::kComputeAgentClass, ComputeState(Seconds(-10))),
      honest_compute);
}

// ---------------------------------------------------------------- logging

TEST(LoggingTest, LevelGateWorks) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // These compile into gated statements; nothing to assert beyond "no
  // crash", but the macro must evaluate its stream lazily.
  BP_LOG(Debug) << "suppressed";
  BP_LOG(Warn) << "suppressed";
  SetLogLevel(before);
}

}  // namespace
}  // namespace bestpeer
