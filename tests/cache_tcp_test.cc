// The result cache and hot-answer replication over real loopback TCP
// sockets (net::TcpNet): repeat queries must keep full recall while
// responders switch to not-modified replies, replicas must be pushed to
// the reactor-driven receiver, and their TTL leases must expire on the
// real-time clock. Runs under the TSan job to shake out races between
// the reactor thread and timer-driven cache/replica state.

#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/result_cache.h"
#include "core/node.h"
#include "core/search_agent.h"
#include "net/tcp_transport.h"
#include "workload/corpus.h"

namespace bestpeer {
namespace {

constexpr size_t kNodes = 5;  // Star: 0 is the base, 1..4 are leaves.
constexpr size_t kObjectsPerNode = 16;
constexpr size_t kMatchesPerNode = 2;
constexpr size_t kQueries = 5;
constexpr size_t kExpectedUnique = (kNodes - 1) * kMatchesPerNode;

TEST(CacheTcpTest, RepeatQueriesReplicateAndExpireOverRealSockets) {
  net::TcpNet tcpnet;
  core::SharedInfra infra;
  core::BestPeerConfig config;
  config.max_direct_peers = kNodes;
  config.strategy = "none";
  config.default_ttl = 4;
  config.enable_result_cache = true;
  config.enable_replication = true;
  config.replica_hot_threshold = 2;
  config.replica_cooldown = Millis(5);
  config.replica_ttl = Millis(20);

  workload::CorpusGenerator corpus({512, 300, 0.8}, 7);
  std::vector<std::unique_ptr<core::BestPeerNode>> nodes;
  for (size_t i = 0; i < kNodes; ++i) {
    auto node =
        core::BestPeerNode::Create(tcpnet.AddNode().value(), &infra, config);
    ASSERT_TRUE(node.ok());
    ASSERT_TRUE((*node)->InitStorage({}).ok());
    for (size_t o = 0; o < kObjectsPerNode; ++o) {
      bool match = i != 0 && o < kMatchesPerNode;
      ASSERT_TRUE((*node)
                      ->ShareObject((static_cast<uint64_t>(i) << 24) | o,
                                    corpus.MakeObject(match))
                      .ok());
    }
    infra.code_cache.Load((*node)->node(), core::kSearchAgentClass);
    nodes.push_back(std::move(*node));
  }
  for (size_t i = 1; i < kNodes; ++i) {
    nodes[0]->AddDirectPeerLocal(nodes[i]->node());
    nodes[i]->AddDirectPeerLocal(nodes[0]->node());
  }

  tcpnet.Start();
  auto wait_until = [&](const std::function<bool()>& done_on_reactor) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      bool done = false;
      tcpnet.Run([&]() { done = done_on_reactor(); });
      if (done) return true;
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  for (size_t q = 0; q < kQueries; ++q) {
    uint64_t query_id = 0;
    tcpnet.Run([&]() {
      query_id =
          nodes[0]->IssueSearch(workload::CorpusGenerator::kNeedle).value();
    });
    ASSERT_TRUE(wait_until([&]() {
      const core::QuerySession* s = nodes[0]->FindSession(query_id);
      return s != nullptr && s->unique_answers() >= kExpectedUnique;
    })) << "query " << q << " never reached full recall";
    size_t unique = 0;
    tcpnet.Run([&]() {
      unique = nodes[0]->FindSession(query_id)->unique_answers();
    });
    EXPECT_EQ(unique, kExpectedUnique) << "query " << q;
  }

  // Leaves crossed the hot threshold, so their answers were pushed to
  // the base; each lease then expires on the reactor's real-time clock.
  EXPECT_TRUE(wait_until([&]() {
    const core::Replicas& replicas = nodes[0]->replicas();
    return replicas.replicas_stored() > 0 &&
           replicas.replicas_expired() == replicas.replicas_stored();
  })) << "replica leases never expired";

  uint64_t responder_hits = 0;
  uint64_t remote_hits = 0;
  uint64_t replica_count = 0;
  tcpnet.Run([&]() {
    for (const auto& node : nodes) {
      if (cache::ResultCache* rc = node->result_cache()) {
        responder_hits += rc->hits();
      }
    }
    remote_hits = nodes[0]->cache_probe()->cache_remote_hits();
    replica_count = nodes[0]->replicas().replica_manager()->replica_count();
  });
  tcpnet.Stop();

  EXPECT_GT(responder_hits, 0u)
      << "repeat queries must hit the responder caches";
  EXPECT_GT(remote_hits, 0u)
      << "the base must materialize not-modified replies";
  EXPECT_EQ(replica_count, 0u) << "expired leases must be forgotten";
}

}  // namespace
}  // namespace bestpeer
