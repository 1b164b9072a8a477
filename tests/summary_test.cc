#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/node.h"
#include "liglo/liglo_server.h"
#include "net/dispatcher.h"
#include "net/sim_transport.h"
#include "sim/simulator.h"
#include "storm/content_summary.h"
#include "storm/keyword_index.h"
#include "storm/query_expr.h"
#include "util/bytes.h"
#include "util/strings.h"

namespace bestpeer {
namespace {

using storm::ContentSummary;
using storm::KeywordIndex;
using storm::QueryExpr;

KeywordIndex SmallIndex() {
  KeywordIndex index;
  index.Add(1, "alpha beta gamma");
  index.Add(2, "alpha delta");
  index.Add(3, "alpha");
  return index;
}

// ---------------------------------------------------------------- digest

TEST(ContentSummaryTest, NoFalseNegatives) {
  KeywordIndex index = SmallIndex();
  ContentSummary summary = ContentSummary::Build(index, 7);
  EXPECT_EQ(summary.epoch(), 7u);
  EXPECT_EQ(summary.keyword_count(), 4u);
  for (const char* kw : {"alpha", "beta", "gamma", "delta"}) {
    EXPECT_TRUE(summary.MayContain(kw)) << kw;
    // Lookups fold case exactly like the index does.
    EXPECT_TRUE(summary.MayContain(ToLower(kw)));
  }
  // Bloom filters admit false positives but at 10 bits/key they must be
  // rare; a large sample of absent keywords stays overwhelmingly negative.
  size_t false_positives = 0;
  for (int i = 0; i < 200; ++i) {
    if (summary.MayContain("absent" + std::to_string(i))) ++false_positives;
  }
  EXPECT_LT(false_positives, 10u);
}

TEST(ContentSummaryTest, EmptyIndexContainsNothing) {
  KeywordIndex index;
  ContentSummary summary = ContentSummary::Build(index, 1);
  EXPECT_FALSE(summary.MayContain("anything"));
  EXPECT_FALSE(summary.MayMatch(QueryExpr::Parse("anything").value()));
  // Default-constructed (no summary received yet) behaves the same.
  EXPECT_FALSE(ContentSummary().MayContain("anything"));
}

TEST(ContentSummaryTest, MayMatchFollowsDnfBranches) {
  ContentSummary summary = ContentSummary::Build(SmallIndex(), 1);
  // Single AND branch: all terms present -> may match.
  EXPECT_TRUE(summary.MayMatch(QueryExpr::Parse("alpha beta").value()));
  // One definitely-absent term kills the branch.
  EXPECT_FALSE(summary.MayMatch(QueryExpr::Parse("alpha zzqqxx9").value()));
  // ...but OR only needs one viable branch.
  EXPECT_TRUE(summary.MayMatch(QueryExpr::Parse("alpha zzqqxx9 OR delta").value()));
  EXPECT_FALSE(summary.MayMatch(QueryExpr::Parse("zzqqxx9 OR qqzzyy8").value()));
}

TEST(ContentSummaryTest, TopKeywordsRankByPostingCount) {
  ContentSummary summary = ContentSummary::Build(SmallIndex(), 1);
  ASSERT_FALSE(summary.top_keywords().empty());
  EXPECT_EQ(summary.top_keywords().front().keyword, "alpha");
  EXPECT_EQ(summary.top_keywords().front().count, 3u);
  // Counts never increase down the list.
  for (size_t i = 1; i < summary.top_keywords().size(); ++i) {
    EXPECT_GE(summary.top_keywords()[i - 1].count,
              summary.top_keywords()[i].count);
  }
}

// ---------------------------------------------------------------- codec

TEST(ContentSummaryCodecTest, RoundTrip) {
  ContentSummary original = ContentSummary::Build(SmallIndex(), 42);
  Bytes encoded = original.Encode();
  auto decoded = ContentSummary::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->epoch(), 42u);
  EXPECT_EQ(decoded->keyword_count(), original.keyword_count());
  EXPECT_EQ(decoded->filter_bits(), original.filter_bits());
  EXPECT_EQ(decoded->top_keywords(), original.top_keywords());
  for (const char* kw : {"alpha", "beta", "gamma", "delta", "nothere"}) {
    EXPECT_EQ(decoded->MayContain(kw), original.MayContain(kw)) << kw;
  }
  // Re-encoding is byte-stable.
  EXPECT_EQ(decoded->Encode(), encoded);
}

TEST(ContentSummaryCodecTest, EveryTruncationFailsToDecode) {
  Bytes encoded = ContentSummary::Build(SmallIndex(), 42).Encode();
  ASSERT_GT(encoded.size(), 8u);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    Bytes truncated(encoded.begin(),
                    encoded.begin() + static_cast<long>(cut));
    EXPECT_FALSE(ContentSummary::Decode(truncated).ok())
        << "decode unexpectedly succeeded at cut " << cut << " of "
        << encoded.size();
  }
}

TEST(ContentSummaryCodecTest, TrailingBytesRejected) {
  Bytes encoded = ContentSummary::Build(SmallIndex(), 42).Encode();
  encoded.push_back(0x00);
  auto decoded = ContentSummary::Decode(encoded);
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());
}

// Hand-built encodings probing each decoder cap.
Bytes Craft(uint64_t epoch, uint64_t keyword_count, uint8_t num_hashes,
            uint64_t words, uint64_t top_count) {
  BinaryWriter writer;
  writer.WriteVarint(epoch);
  writer.WriteVarint(keyword_count);
  writer.WriteU8(num_hashes);
  writer.WriteVarint(words);
  for (uint64_t w = 0; w < words; ++w) writer.WriteU64(0xAAAAAAAAAAAAAAAAULL);
  writer.WriteVarint(top_count);
  for (uint64_t t = 0; t < top_count; ++t) {
    writer.WriteString("kw" + std::to_string(t));
    writer.WriteVarint(t + 1);
  }
  return writer.Take();
}

TEST(ContentSummaryCodecTest, MalformedEncodingsRejected) {
  // Control: a crafted-but-valid encoding decodes.
  ASSERT_TRUE(ContentSummary::Decode(Craft(1, 4, 6, 2, 1)).ok());
  // Zero hash functions.
  EXPECT_FALSE(ContentSummary::Decode(Craft(1, 4, 0, 2, 1)).ok());
  // More hash functions than the cap.
  EXPECT_FALSE(ContentSummary::Decode(Craft(1, 4, 17, 2, 1)).ok());
  // Empty filter with a nonzero keyword count.
  EXPECT_FALSE(ContentSummary::Decode(Craft(1, 4, 6, 0, 1)).ok());
  // Filter word count over the cap (declared, not materialized: the
  // reader must fail on the cap check or truncation, never allocate).
  {
    BinaryWriter writer;
    writer.WriteVarint(1);
    writer.WriteVarint(4);
    writer.WriteU8(6);
    writer.WriteVarint((1ULL << 16) + 1);
    EXPECT_FALSE(ContentSummary::Decode(writer.Take()).ok());
  }
  // Top-keyword count over the cap.
  EXPECT_FALSE(ContentSummary::Decode(Craft(1, 4, 6, 2, 65)).ok());
}

// ---------------------------------------------------------------- fleet

class SummaryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ =
        std::make_unique<sim::SimNetwork>(&sim_, sim::NetworkOptions{});
    fleet_ = std::make_unique<net::SimTransportFleet>(network_.get());
    infra_ = std::make_unique<core::SharedInfra>();
  }

  std::unique_ptr<core::BestPeerNode> MakeNode(bool summaries) {
    core::BestPeerConfig config;
    config.enable_content_summaries = summaries;
    auto node = core::BestPeerNode::Create(fleet_->AddNode(), infra_.get(),
                                           config)
                    .value();
    EXPECT_TRUE(node->InitStorage({}).ok());
    return node;
  }

  // Star: base in the middle, bidirectional local edges.
  void Wire(core::BestPeerNode* base,
            const std::vector<core::BestPeerNode*>& peers) {
    for (core::BestPeerNode* p : peers) {
      base->AddDirectPeerLocal(p->node());
      p->AddDirectPeerLocal(base->node());
    }
  }

  Bytes Content(const std::string& s) { return Bytes(s.begin(), s.end()); }

  sim::Simulator sim_;
  std::unique_ptr<sim::SimNetwork> network_;
  std::unique_ptr<net::SimTransportFleet> fleet_;
  std::unique_ptr<core::SharedInfra> infra_;
};

TEST_F(SummaryFixture, BaseSkipsProvablyEmptyPeersWithoutLosingAnswers) {
  auto base = MakeNode(true);
  auto hot = MakeNode(true);     // Holds the needle.
  auto cold1 = MakeNode(true);   // Filler only.
  auto cold2 = MakeNode(true);
  Wire(base.get(), {hot.get(), cold1.get(), cold2.get()});

  ASSERT_TRUE(hot->ShareObject(1, Content("needle document")).ok());
  ASSERT_TRUE(cold1->ShareObject(2, Content("filler text")).ok());
  ASSERT_TRUE(cold2->ShareObject(3, Content("other filler")).ok());
  sim_.RunUntilIdle();  // Drain the debounced summary broadcasts.

  EXPECT_EQ(base->summaries()->peer_summary_count(), 3u);
  uint64_t qid = base->IssueSearch("needle").value();
  sim_.RunUntilIdle();

  const core::QuerySession* session = base->FindSession(qid);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->total_answers(), 1u) << "recall must be preserved";
  EXPECT_EQ(base->summaries()->summary_skips(), 2u);
  EXPECT_EQ(hot->agent_runtime().agents_executed(), 1u);
  EXPECT_EQ(cold1->agent_runtime().agents_executed(), 0u)
      << "summary-excluded peer must not be visited";
  EXPECT_EQ(cold2->agent_runtime().agents_executed(), 0u);
}

TEST_F(SummaryFixture, SameAnswersAsSummariesOffRun) {
  for (bool summaries : {false, true}) {
    sim::Simulator sim;
    sim::SimNetwork network(&sim, sim::NetworkOptions{});
    net::SimTransportFleet fleet(&network);
    core::SharedInfra infra;
    core::BestPeerConfig config;
    config.enable_content_summaries = summaries;
    auto make = [&]() {
      auto n = core::BestPeerNode::Create(fleet.AddNode(), &infra, config)
                   .value();
      EXPECT_TRUE(n->InitStorage({}).ok());
      return n;
    };
    auto base = make();
    auto a = make();
    auto b = make();
    base->AddDirectPeerLocal(a->node());
    a->AddDirectPeerLocal(base->node());
    base->AddDirectPeerLocal(b->node());
    b->AddDirectPeerLocal(base->node());
    ASSERT_TRUE(a->ShareObject(1, Content("needle one")).ok());
    ASSERT_TRUE(a->ShareObject(2, Content("needle two")).ok());
    ASSERT_TRUE(b->ShareObject(3, Content("chaff")).ok());
    sim.RunUntilIdle();
    uint64_t qid = base->IssueSearch("needle").value();
    sim.RunUntilIdle();
    EXPECT_EQ(base->FindSession(qid)->total_answers(), 2u)
        << "summaries=" << summaries;
  }
}

TEST_F(SummaryFixture, SummariesRefreshAfterMutation) {
  auto base = MakeNode(true);
  auto peer = MakeNode(true);
  Wire(base.get(), {peer.get()});

  ASSERT_TRUE(peer->ShareObject(1, Content("boring filler")).ok());
  sim_.RunUntilIdle();

  uint64_t q1 = base->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  EXPECT_EQ(base->FindSession(q1)->total_answers(), 0u);
  EXPECT_EQ(base->summaries()->summary_skips(), 1u);
  EXPECT_EQ(peer->agent_runtime().agents_executed(), 0u);

  // The peer's store changes; its refreshed summary must reach the base
  // before the next query so the peer is visited again.
  ASSERT_TRUE(peer->ShareObject(2, Content("needle arrives")).ok());
  sim_.RunUntilIdle();

  uint64_t q2 = base->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  EXPECT_EQ(base->FindSession(q2)->total_answers(), 1u);
  EXPECT_EQ(base->summaries()->summary_skips(), 1u)
      << "no new skip after refresh";
  EXPECT_EQ(peer->agent_runtime().agents_executed(), 1u);
}

TEST_F(SummaryFixture, DisconnectDropsPeerSummary) {
  auto base = MakeNode(true);
  auto peer = MakeNode(true);
  Wire(base.get(), {peer.get()});
  ASSERT_TRUE(peer->ShareObject(1, Content("something")).ok());
  sim_.RunUntilIdle();
  ASSERT_EQ(base->summaries()->peer_summary_count(), 1u);

  // A disconnect notice (as sent by departing or evicting peers) must
  // drop the stored summary so a stale digest never suppresses visits.
  auto codec = MakeCodec("lzss").value();
  network_->Send(peer->node(), base->node(), core::kPeerDisconnectType,
                 codec->Compress(Bytes{}).value());
  sim_.RunUntilIdle();
  EXPECT_EQ(base->summaries()->peer_summary_count(), 0u);
}

TEST_F(SummaryFixture, RejoinDropOfOfflinePeerForgetsItsSummary) {
  net::SimTransport* server_transport = fleet_->AddNode();
  net::Dispatcher server_dispatcher(server_transport);
  liglo::LigloServer server(server_transport, &server_dispatcher,
                            &infra_->ip_directory, {});
  auto a = MakeNode(true);
  auto b = MakeNode(true);
  ASSERT_TRUE(a->ShareObject(1, Content("filler only")).ok());
  const liglo::IpAddress ip_a = infra_->ip_directory.AssignFresh(a->node());
  const liglo::IpAddress ip_b = infra_->ip_directory.AssignFresh(b->node());
  a->JoinNetwork(server_transport->local(), ip_a, nullptr);
  sim_.RunUntilIdle();
  b->JoinNetwork(server_transport->local(), ip_b, nullptr);  // A is starter.
  sim_.RunUntilIdle();
  ASSERT_TRUE(b->peers().Contains(a->node()));
  ASSERT_EQ(b->summaries()->peer_summary_count(), 1u);

  // A reports itself offline; B's rejoin resolves A as offline and drops
  // it, which must forget A's summary like every other drop does.
  a->liglo_client().UpdateAddress(ip_a, false, nullptr);
  sim_.RunUntilIdle();
  b->RejoinNetwork(ip_b, nullptr);
  sim_.RunUntilIdle();
  EXPECT_EQ(b->peers().size(), 0u);
  EXPECT_EQ(b->summaries()->peer_summary_count(), 0u);
  b->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  EXPECT_EQ(b->summaries()->summary_skips(), 0u)
      << "a dropped peer's stale summary must not count as a skip";
}

}  // namespace
}  // namespace bestpeer
