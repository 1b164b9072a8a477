// End-to-end tests for the result cache and hot-answer replication on the
// simulated network: not-modified replies on repeat queries, the no-stale
// invalidation contract under store mutation, replica promotion serving
// answers closer to the base, TTL expiry (including across a crash), and
// the determinism / transparency guarantees (cache off is bit-stable;
// observability does not perturb a cache-on schedule).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/node.h"
#include "net/sim_transport.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "workload/experiment.h"
#include "workload/topology.h"

namespace bestpeer::core {
namespace {

BestPeerConfig CacheConfig() {
  BestPeerConfig config;
  config.max_direct_peers = 4;
  config.enable_result_cache = true;
  return config;
}

std::vector<std::pair<size_t, size_t>> Line(size_t count) {
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t i = 0; i + 1 < count; ++i) edges.emplace_back(i, i + 1);
  return edges;
}

class CacheFixture : public ::testing::Test {
 protected:
  /// `matches[i]` matching objects at node i (ids i<<24 | m).
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
        std::string text = "needle cached data";
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

  /// Issues `keyword` from node 0, drains the sim, returns the session.
  const QuerySession* Query(const std::string& keyword = "needle") {
    uint64_t query_id = nodes_[0]->IssueSearch(keyword).value();
    sim_.RunUntilIdle();
    return nodes_[0]->FindSession(query_id);
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::SimNetwork> network_;
  std::unique_ptr<net::SimTransportFleet> fleet_;
  std::unique_ptr<SharedInfra> infra_;
  std::vector<std::unique_ptr<BestPeerNode>> nodes_;
  std::map<size_t, std::vector<storm::ObjectId>> ids_;
};

TEST_F(CacheFixture, RepeatQueryBecomesNotModifiedAndSavesWire) {
  Build(CacheConfig(), {0, 2, 2}, {{0, 1}, {0, 2}});

  const QuerySession* first = Query();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->unique_answers(), 4u);
  EXPECT_EQ(nodes_[0]->cache_probe()->cache_remote_hits(), 0u);
  const uint64_t wire_first = network_->total_wire_bytes();

  const QuerySession* second = Query();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->unique_answers(), 4u)
      << "cached answers must match the fresh ones";
  EXPECT_EQ(second->responder_count(), 2u);
  EXPECT_EQ(nodes_[0]->cache_probe()->cache_remote_hits(), 2u)
      << "both responders should reply not-modified";
  EXPECT_EQ(nodes_[0]->cache_probe()->cache_notmod_orphans(), 0u);
  for (size_t i : {1u, 2u}) {
    EXPECT_GE(nodes_[i]->result_cache()->hits(), 1u);
  }
  const uint64_t wire_second = network_->total_wire_bytes() - wire_first;
  EXPECT_LT(wire_second, wire_first)
      << "not-modified replies must be cheaper than full answers";
}

TEST_F(CacheFixture, StoreMutationInvalidatesAndNeverServesStale) {
  Build(CacheConfig(), {0, 2, 2}, {{0, 1}, {0, 2}});

  ASSERT_EQ(Query()->unique_answers(), 4u);
  ASSERT_EQ(Query()->unique_answers(), 4u);  // Warm: served not-modified.

  // Delete one matching object at node 1: the epoch bump must force a
  // fresh scan, and the unshared object must never appear again.
  ASSERT_TRUE(nodes_[1]->UnshareObject(ids_[1][0]).ok());
  const QuerySession* after_delete = Query();
  EXPECT_EQ(after_delete->unique_answers(), 3u)
      << "a stale cached answer leaked past the mutation";
  EXPECT_GE(nodes_[1]->result_cache()->invalidations(), 1u)
      << "node 1 must drop its stale slice instead of serving it";

  // Warm again, then *add* a matching object at node 2: the cache must
  // not mask the new answer either.
  ASSERT_EQ(Query()->unique_answers(), 3u);
  std::string text = "needle cached data";
  text.resize(256, ' ');
  Bytes content(text.begin(), text.end());
  ASSERT_TRUE(nodes_[2]->ShareObject((2ull << 24) | 9, content).ok());
  EXPECT_EQ(Query()->unique_answers(), 4u)
      << "a cached result hid a newly shared object";
}

TEST_F(CacheFixture, HotAnswersReplicateTowardTheBase) {
  BestPeerConfig config = CacheConfig();
  config.enable_replication = true;
  config.replica_hot_threshold = 3;
  config.replica_ttl = 0;  // Keep replicas for the whole test.
  config.replica_cooldown = Millis(1);
  Build(config, {0, 0, 0, 0, 3}, Line(5));

  const QuerySession* cold = Query();
  ASSERT_EQ(cold->unique_answers(), 3u);
  const uint16_t hops_before = cold->responses().front().hops;
  const SimTime first_before =
      cold->responses().front().time - cold->start_time();

  // Two more serves push the key past the hot threshold at node 4.
  Query();
  Query();
  EXPECT_GE(nodes_[4]->replicas().replica_pushes(), 1u);
  for (storm::ObjectId id : ids_[4]) {
    EXPECT_TRUE(nodes_[3]->storage()->Contains(id))
        << "the hot answers should now be replicated at node 3";
  }

  const QuerySession* warm = Query();
  const uint16_t hops_after = warm->responses().front().hops;
  const SimTime first_after =
      warm->responses().front().time - warm->start_time();
  EXPECT_LT(hops_after, hops_before)
      << "the replica holder is closer to the base";
  EXPECT_LT(first_after, first_before);
  EXPECT_EQ(warm->unique_answers(), 3u)
      << "replication must not change the unique answer set";
}

TEST_F(CacheFixture, ReplicaTtlExpiresTheCopyAndItsBookkeeping) {
  BestPeerConfig config = CacheConfig();
  config.enable_replication = true;
  config.replica_hot_threshold = 1;  // Promote on the first serve.
  config.replica_ttl = Millis(50);
  Build(config, {0, 0, 2}, Line(3));

  ASSERT_EQ(Query()->unique_answers(), 2u);
  // RunUntilIdle drained the TTL timer too: the replica pushed to node 1
  // must already be stored, expired, and deleted again.
  EXPECT_EQ(nodes_[1]->replicas().replicas_stored(), 2u);
  EXPECT_EQ(nodes_[1]->replicas().replicas_expired(), 2u);
  EXPECT_EQ(nodes_[1]->replicas().replica_manager()->replica_count(), 0u);
  for (storm::ObjectId id : ids_[2]) {
    EXPECT_FALSE(nodes_[1]->storage()->Contains(id));
  }
  // The expiry deletion bumped node 1's epoch, so a repeat query gets
  // fresh (and correct) answers rather than anything replica-tainted.
  EXPECT_EQ(Query()->unique_answers(), 2u);
}

TEST_F(CacheFixture, ReplicaPushDroppedByCrashThenRecoversAndExpires) {
  BestPeerConfig config = CacheConfig();
  config.enable_replication = true;
  config.replica_hot_threshold = 1;
  config.replica_ttl = Millis(50);
  config.replica_cooldown = Millis(100);
  // The injector must exist before the network is built (the network
  // binds it at construction).
  sim::FaultInjector* faults = sim_.EnableFaults(sim::FaultOptions{});
  // Triangle: answers at node 1, which pushes to both 0 and 2.
  Build(config, {0, 2, 0}, {{0, 1}, {1, 2}, {0, 2}});

  // Node 2 is down for the whole first query: the push to it vanishes.
  faults->ScheduleCrash(nodes_[2]->node(), /*crash_at=*/1,
                        /*down_for=*/Seconds(1));
  ASSERT_EQ(Query()->unique_answers(), 2u);
  EXPECT_EQ(nodes_[2]->replicas().replicas_stored(), 0u)
      << "a crashed receiver must simply miss the push";
  EXPECT_EQ(nodes_[2]->replicas().replica_manager()->replica_count(), 0u);

  // After the restart a re-promotion pushes again; this time node 2
  // stores the copies and its TTL lease cleans them up.
  ASSERT_EQ(Query()->unique_answers(), 2u);
  EXPECT_EQ(nodes_[2]->replicas().replicas_stored(), 2u);
  EXPECT_EQ(nodes_[2]->replicas().replicas_expired(), 2u);
  EXPECT_EQ(nodes_[2]->replicas().replica_manager()->replica_count(), 0u);
  for (storm::ObjectId id : ids_[1]) {
    EXPECT_FALSE(nodes_[2]->storage()->Contains(id));
  }
}

// --- workload-level behaviour ---------------------------------------------

workload::ExperimentOptions ZipfWorkload() {
  workload::ExperimentOptions options;
  options.topology = workload::MakeTree(7, 2);
  options.scheme = workload::Scheme::kBps;
  options.objects_per_node = 60;
  options.object_size = 256;
  options.matches_per_node = 2;
  options.queries = 12;
  options.ttl = 16;
  options.seed = 3;
  options.query_pool = 3;
  options.query_zipf_skew = 1.2;
  return options;
}

TEST(CacheWorkloadTest, ZipfRepeatsHitAndCutWireBytes) {
  workload::ExperimentOptions off = ZipfWorkload();
  auto off_result = workload::RunExperiment(off);
  ASSERT_TRUE(off_result.ok()) << off_result.status().ToString();
  EXPECT_EQ(off_result->metrics.Value("cache.hits"), 0.0);

  workload::ExperimentOptions on = off;
  on.enable_result_cache = true;
  auto on_result = workload::RunExperiment(on);
  ASSERT_TRUE(on_result.ok()) << on_result.status().ToString();

  const double hits = on_result->metrics.Value("cache.hits");
  const double misses = on_result->metrics.Value("cache.misses");
  ASSERT_GT(hits + misses, 0.0);
  EXPECT_GE(hits / (hits + misses), 0.4)
      << "the Zipf-repeat workload must reach the target hit rate";
  EXPECT_LT(on_result->wire_bytes, off_result->wire_bytes)
      << "not-modified replies must shrink total wire traffic";

  // The cache is transparent: same answers, query by query.
  ASSERT_EQ(on_result->queries.size(), off_result->queries.size());
  for (size_t q = 0; q < on_result->queries.size(); ++q) {
    EXPECT_EQ(on_result->queries[q].unique_answers,
              off_result->queries[q].unique_answers)
        << "query " << q;
    EXPECT_EQ(on_result->queries[q].total_answers,
              off_result->queries[q].total_answers)
        << "query " << q;
  }
}

TEST(CacheWorkloadTest, MidWorkloadMutationsStayTransparent) {
  workload::ExperimentOptions off = ZipfWorkload();
  off.query_pool = 0;  // Single keyword: every query repeats.
  off.queries = 8;
  off.mutate_every = 2;
  auto off_result = workload::RunExperiment(off);
  ASSERT_TRUE(off_result.ok()) << off_result.status().ToString();

  workload::ExperimentOptions on = off;
  on.enable_result_cache = true;
  auto on_result = workload::RunExperiment(on);
  ASSERT_TRUE(on_result.ok()) << on_result.status().ToString();

  EXPECT_GT(on_result->metrics.Value("cache.hits"), 0.0);
  EXPECT_GT(on_result->metrics.Value("cache.invalidations"), 0.0)
      << "each mutation must invalidate the responder's slice";
  ASSERT_EQ(on_result->queries.size(), off_result->queries.size());
  for (size_t q = 0; q < on_result->queries.size(); ++q) {
    EXPECT_EQ(on_result->queries[q].unique_answers,
              off_result->queries[q].unique_answers)
        << "stale cached answer after a mutation, query " << q;
  }
  // The unshares must actually bite: the answer set shrinks over the run.
  EXPECT_LT(on_result->queries.back().unique_answers,
            on_result->queries.front().unique_answers);
}

TEST(CacheWorkloadTest, CacheRunsAreDeterministic) {
  workload::ExperimentOptions options = ZipfWorkload();
  options.enable_result_cache = true;
  options.enable_replication = true;
  auto a = workload::RunExperiment(options);
  auto b = workload::RunExperiment(options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->wire_bytes, b->wire_bytes);
  ASSERT_EQ(a->queries.size(), b->queries.size());
  for (size_t q = 0; q < a->queries.size(); ++q) {
    EXPECT_EQ(a->queries[q].completion, b->queries[q].completion);
    EXPECT_EQ(a->queries[q].unique_answers, b->queries[q].unique_answers);
  }
}

TEST(CacheWorkloadTest, ObservabilityDoesNotPerturbCacheSchedule) {
  workload::ExperimentOptions plain = ZipfWorkload();
  plain.enable_result_cache = true;
  workload::ExperimentOptions instrumented = plain;
  instrumented.obs = {.trace = true,
                      .sample_interval = Millis(5),
                      .flight_capacity = 4096};

  auto a = workload::RunExperiment(plain);
  auto b = workload::RunExperiment(instrumented);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->wire_bytes, b->wire_bytes);
  ASSERT_EQ(a->queries.size(), b->queries.size());
  for (size_t q = 0; q < a->queries.size(); ++q) {
    EXPECT_EQ(a->queries[q].completion, b->queries[q].completion);
    EXPECT_EQ(a->queries[q].unique_answers, b->queries[q].unique_answers);
  }
  ASSERT_NE(b->flight, nullptr);
  EXPECT_GT(b->flight->recorded(), 0u);
}

}  // namespace
}  // namespace bestpeer::core
