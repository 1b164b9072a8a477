// Edge cases and defensive behaviours across modules that the per-module
// suites don't reach: self-sends, storage-less nodes, empty overlays,
// protocol messages from strangers, and cost-model boundaries.

#include <gtest/gtest.h>

#include <memory>

#include "core/node.h"
#include "core/search_agent.h"
#include "net/sim_transport.h"
#include "sim/simulator.h"
#include "storm/keyword_index.h"
#include "storm/pager.h"
#include "util/logging.h"

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
  EXPECT_TRUE(node->ReplicateObjects({1}).IsFailedPrecondition());
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

TEST_F(EdgeFixture, GarbagePayloadsDoNotCrashHandlers) {
  auto a = MakeNode();
  auto b = MakeNode();
  b->InitStorage({}).ok();
  for (uint32_t type :
       {core::kSearchResultType, core::kFetchReqType, core::kFetchRespType,
        core::kActiveObjReqType, core::kActiveObjRespType,
        core::kDataShipReqType, core::kDataShipRespType,
        core::kCacheReplicaPushType, core::kWatchReqType,
        core::kUpdateNotifyType, agent::kAgentTransferType}) {
    network_->Send(a->node(), b->node(), type, Bytes{0xFF, 0x00, 0xAB});
  }
  sim_.RunUntilIdle();  // Must not crash; malformed input is dropped.
  EXPECT_EQ(b->results_received(), 0u);
}

TEST_F(EdgeFixture, IssueDirectSearchWithNoPeers) {
  auto loner = MakeNode();
  loner->InitStorage({}).ok();
  uint64_t qid =
      loner->IssueDirectSearch("needle", core::ShippingMode::kAdaptive)
          .value();
  sim_.RunUntilIdle();
  EXPECT_EQ(loner->FindSession(qid)->total_indicated(), 0u);
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
