#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/active_object.h"
#include "core/messages.h"
#include "core/node.h"
#include "liglo/liglo_server.h"
#include "net/dispatcher.h"
#include "net/sim_transport.h"
#include "sim/simulator.h"
#include "util/strings.h"

namespace bestpeer::core {
namespace {

/// Builds a small BestPeer network over a given edge list.
class CoreNodeFixture : public ::testing::Test {
 protected:
  void Build(size_t count, const std::vector<std::pair<size_t, size_t>>& edges,
             BestPeerConfig config = {}) {
    network_ =
        std::make_unique<sim::SimNetwork>(&sim_, sim::NetworkOptions{});
    fleet_ = std::make_unique<net::SimTransportFleet>(network_.get());
    infra_ = std::make_unique<SharedInfra>();
    for (size_t i = 0; i < count; ++i) ids_.push_back(network_->AddNode());
    for (size_t i = 0; i < count; ++i) {
      auto node =
          BestPeerNode::Create(fleet_->For(ids_[i]), infra_.get(), config)
              .value();
      ASSERT_TRUE(node->InitStorage({}).ok());
      nodes_.push_back(std::move(node));
    }
    for (auto [a, b] : edges) {
      nodes_[a]->AddDirectPeerLocal(ids_[b]);
      nodes_[b]->AddDirectPeerLocal(ids_[a]);
    }
  }

  /// Shares `count` objects at node `idx`; `matches` of them match.
  void Fill(size_t idx, size_t count, size_t matches) {
    for (size_t i = 0; i < count; ++i) {
      std::string text = i < matches ? "needle content here"
                                     : "ordinary content here";
      Bytes content(text.begin(), text.end());
      content.resize(256, ' ');
      storm::ObjectId id = (static_cast<uint64_t>(idx) << 24) | i;
      ASSERT_TRUE(nodes_[idx]->ShareObject(id, content).ok());
    }
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::SimNetwork> network_;
  std::unique_ptr<net::SimTransportFleet> fleet_;
  std::unique_ptr<SharedInfra> infra_;
  std::vector<NodeId> ids_;
  std::vector<std::unique_ptr<BestPeerNode>> nodes_;
};

TEST_F(CoreNodeFixture, SearchFindsRemoteMatches) {
  // Line: 0 - 1 - 2.
  Build(3, {{0, 1}, {1, 2}});
  Fill(1, 20, 3);
  Fill(2, 20, 5);
  uint64_t qid = nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  const QuerySession* session = nodes_[0]->FindSession(qid);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->total_answers(), 8u);
  EXPECT_EQ(session->responder_count(), 2u);
  EXPECT_GT(session->completion_time(), 0);
}

TEST_F(CoreNodeFixture, SessionTableKeepsTheNewestQueries) {
  Build(2, {{0, 1}});
  Fill(1, 4, 1);
  constexpr size_t kForgotten = 4;
  std::vector<uint64_t> ids;
  for (size_t q = 0; q < SessionTable::kMaxSessions + kForgotten; ++q) {
    ids.push_back(nodes_[0]->IssueSearch("needle").value());
  }
  sim_.RunUntilIdle();
  // The oldest sessions were forgotten before their results came back, so
  // those results were ignored as unknown (not counted as late).
  for (size_t q = 0; q < kForgotten; ++q) {
    EXPECT_EQ(nodes_[0]->FindSession(ids[q]), nullptr);
  }
  for (size_t q = kForgotten; q < ids.size(); ++q) {
    const QuerySession* session = nodes_[0]->FindSession(ids[q]);
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(session->total_answers(), 1u);
  }
  EXPECT_EQ(nodes_[0]->sessions().inflight(), SessionTable::kMaxSessions);
  EXPECT_EQ(nodes_[0]->sessions().late_results(), 0u);
}

TEST_F(CoreNodeFixture, NoMatchesMeansNoResponses) {
  Build(2, {{0, 1}});
  Fill(1, 10, 0);
  uint64_t qid = nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  EXPECT_EQ(nodes_[0]->FindSession(qid)->responder_count(), 0u);
}

TEST_F(CoreNodeFixture, HopsArePiggybackedWithAnswers) {
  Build(4, {{0, 1}, {1, 2}, {2, 3}});
  Fill(3, 10, 2);
  uint64_t qid = nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  const auto& responses = nodes_[0]->FindSession(qid)->responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].hops, 3);
  EXPECT_EQ(responses[0].node, ids_[3]);
}

TEST_F(CoreNodeFixture, AnswersReturnDirectlyNotAlongPath) {
  // Track message flow: node 1 (the intermediate) must never carry a
  // search-result message.
  Build(3, {{0, 1}, {1, 2}});
  Fill(2, 10, 2);
  bool relay_saw_result = false;
  network_->SetTrace([&](const net::Message& m, SimTime, SimTime) {
    if (m.type == kSearchResultType && m.dst == ids_[1]) {
      relay_saw_result = true;
    }
  });
  nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  EXPECT_FALSE(relay_saw_result)
      << "results must go out-of-network, straight to the base node";
}

TEST_F(CoreNodeFixture, ModeTwoFetchesContentOutOfNetwork) {
  BestPeerConfig config;
  config.answer_mode = AnswerMode::kIndicate;
  config.auto_fetch = true;
  Build(3, {{0, 1}, {1, 2}}, config);
  Fill(2, 10, 4);
  uint64_t qid = nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  const QuerySession* session = nodes_[0]->FindSession(qid);
  EXPECT_EQ(session->total_indicated(), 4u);  // Descriptors.
  EXPECT_EQ(session->total_answers(), 4u);    // Fetched contents.
  ASSERT_EQ(session->fetches().size(), 1u);
  EXPECT_GT(session->fetches()[0].time, session->responses()[0].time);
}

TEST_F(CoreNodeFixture, ModeTwoWithoutAutoFetchOnlyIndicates) {
  BestPeerConfig config;
  config.answer_mode = AnswerMode::kIndicate;
  config.auto_fetch = false;
  Build(2, {{0, 1}}, config);
  Fill(1, 10, 4);
  uint64_t qid = nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  const QuerySession* session = nodes_[0]->FindSession(qid);
  EXPECT_EQ(session->total_indicated(), 4u);
  EXPECT_EQ(session->total_answers(), 0u);
  EXPECT_TRUE(session->fetches().empty());
}

TEST_F(CoreNodeFixture, DeadlineFinalizesSessionWithPartialAnswers) {
  BestPeerConfig config;
  config.query_deadline = Seconds(1);
  Build(3, {{0, 1}, {0, 2}}, config);
  Fill(1, 10, 3);
  Fill(2, 10, 5);
  network_->SetOnline(ids_[2], false);  // Crashed: its answers never come.
  uint64_t qid = nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  const QuerySession* session = nodes_[0]->FindSession(qid);
  ASSERT_NE(session, nullptr);
  EXPECT_TRUE(session->finalized());
  EXPECT_EQ(session->total_answers(), 3u);  // The live peer's share.
  EXPECT_EQ(nodes_[0]->sessions().sessions_finalized(), 1u);
}

TEST_F(CoreNodeFixture, ResultsAfterDeadlineAreDroppedAndCounted) {
  BestPeerConfig config;
  config.query_deadline = Millis(1);  // Below one agent round trip.
  Build(2, {{0, 1}}, config);
  Fill(1, 10, 4);
  uint64_t qid = nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  const QuerySession* session = nodes_[0]->FindSession(qid);
  ASSERT_NE(session, nullptr);
  EXPECT_TRUE(session->finalized());
  EXPECT_EQ(session->total_answers(), 0u);
  EXPECT_GE(nodes_[0]->sessions().late_results(), 1u);
}

TEST_F(CoreNodeFixture, SilentPeersAreEvictedAtFailureThreshold) {
  BestPeerConfig config;
  config.query_deadline = Seconds(1);
  config.peer_failure_threshold = 2;
  Build(3, {{0, 1}, {0, 2}}, config);
  Fill(1, 10, 3);
  Fill(2, 10, 3);
  network_->SetOnline(ids_[2], false);  // Silently dead from the start.

  nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  // One missed deadline: still on probation.
  EXPECT_TRUE(nodes_[0]->peers().Contains(ids_[2]));
  EXPECT_EQ(nodes_[0]->peer_evictions(), 0u);

  nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  // Second consecutive miss crosses the threshold.
  EXPECT_FALSE(nodes_[0]->peers().Contains(ids_[2]));
  EXPECT_TRUE(nodes_[0]->peers().Contains(ids_[1]));  // Responder survives.
  EXPECT_EQ(nodes_[0]->peer_evictions(), 1u);
}

TEST_F(CoreNodeFixture, RespondingPeerResetsFailureStreak) {
  BestPeerConfig config;
  config.query_deadline = Seconds(1);
  config.peer_failure_threshold = 2;
  Build(2, {{0, 1}}, config);
  Fill(1, 10, 3);
  network_->SetOnline(ids_[1], false);
  nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();  // Miss #1.
  network_->SetOnline(ids_[1], true);
  nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();  // Answers: streak resets.
  network_->SetOnline(ids_[1], false);
  nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();  // Miss #1 again — not #3.
  EXPECT_TRUE(nodes_[0]->peers().Contains(ids_[1]));
  EXPECT_EQ(nodes_[0]->peer_evictions(), 0u);
}

TEST_F(CoreNodeFixture, ReconfigureAdoptsAnswerers) {
  // Star around node 1; base is node 0 with k=2: 0-1, 1-2, 1-3.
  BestPeerConfig config;
  config.max_direct_peers = 2;
  config.strategy = "maxcount";
  Build(4, {{0, 1}, {1, 2}, {1, 3}}, config);
  Fill(2, 10, 6);
  Fill(3, 10, 2);
  uint64_t qid = nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  ASSERT_TRUE(nodes_[0]->Reconfigure(qid).ok());
  sim_.RunUntilIdle();
  auto peers = nodes_[0]->peers().Nodes();
  // Top answerers are 2 (6 answers) and 3 (2 answers); node 1 answered 0.
  EXPECT_EQ(peers, (std::vector<NodeId>{ids_[2], ids_[3]}));
  EXPECT_EQ(nodes_[0]->reconfigurations(), 1u);
  // The dropped peer's side is updated via the disconnect notice.
  EXPECT_FALSE(nodes_[1]->peers().Contains(ids_[0]));
  // The adopted peers' sides accepted the connect notice.
  EXPECT_TRUE(nodes_[2]->peers().Contains(ids_[0]));
  EXPECT_TRUE(nodes_[3]->peers().Contains(ids_[0]));
}

TEST_F(CoreNodeFixture, StaticStrategyNeverChangesPeers) {
  BestPeerConfig config;
  config.strategy = "none";
  config.max_direct_peers = 1;
  Build(3, {{0, 1}, {1, 2}}, config);
  Fill(2, 10, 5);
  uint64_t qid = nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  ASSERT_TRUE(nodes_[0]->Reconfigure(qid).ok());
  sim_.RunUntilIdle();
  EXPECT_EQ(nodes_[0]->peers().Nodes(), (std::vector<NodeId>{ids_[1]}));
  EXPECT_EQ(nodes_[0]->reconfigurations(), 0u);
}

TEST_F(CoreNodeFixture, SecondQueryFasterAfterReconfigure) {
  // Line 0-1-2-3 with all answers at 3: after reconfig, 3 is adjacent.
  BestPeerConfig config;
  config.max_direct_peers = 2;
  Build(4, {{0, 1}, {1, 2}, {2, 3}}, config);
  Fill(3, 50, 10);
  uint64_t q1 = nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  SimTime t1 = nodes_[0]->FindSession(q1)->completion_time();
  ASSERT_TRUE(nodes_[0]->Reconfigure(q1).ok());
  sim_.RunUntilIdle();
  uint64_t q2 = nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  SimTime t2 = nodes_[0]->FindSession(q2)->completion_time();
  EXPECT_EQ(nodes_[0]->FindSession(q2)->total_answers(), 10u);
  EXPECT_LT(t2, t1) << "reconfiguration should cut the path to answers";
}

TEST_F(CoreNodeFixture, JoinViaLigloAdoptsPeers) {
  // Node 0 runs a LIGLO server; nodes 1..3 are BestPeer nodes that join.
  network_ = std::make_unique<sim::SimNetwork>(&sim_, sim::NetworkOptions{});
  fleet_ = std::make_unique<net::SimTransportFleet>(network_.get());
  infra_ = std::make_unique<SharedInfra>();
  net::SimTransport* server_transport = fleet_->AddNode();
  NodeId server_id = server_transport->local();
  net::Dispatcher server_dispatcher(server_transport);
  liglo::LigloServer server(server_transport, &server_dispatcher,
                            &infra_->ip_directory, {});
  BestPeerConfig config;
  config.max_direct_peers = 4;
  for (size_t i = 0; i < 3; ++i) {
    net::SimTransport* transport = fleet_->AddNode();
    ids_.push_back(transport->local());
    nodes_.push_back(
        BestPeerNode::Create(transport, infra_.get(), config).value());
  }
  int joined = 0;
  for (size_t i = 0; i < 3; ++i) {
    liglo::IpAddress ip =
        infra_->ip_directory.AssignFresh(ids_[i]);
    nodes_[i]->JoinNetwork(
        server_id, ip,
        [&joined](Result<liglo::LigloClient::RegisterOutcome> r) {
          ASSERT_TRUE(r.ok());
          ++joined;
        });
    sim_.RunUntilIdle();
  }
  EXPECT_EQ(joined, 3);
  EXPECT_TRUE(nodes_[0]->bpid().IsValid());
  // Node 1 was handed node 0 as a starter peer; node 2 got 0 and 1.
  EXPECT_TRUE(nodes_[1]->peers().Contains(ids_[0]));
  EXPECT_TRUE(nodes_[2]->peers().Contains(ids_[0]));
  EXPECT_TRUE(nodes_[2]->peers().Contains(ids_[1]));
  // Connect notices made the links bidirectional.
  EXPECT_TRUE(nodes_[0]->peers().Contains(ids_[1]));
  EXPECT_EQ(server.member_count(), 3u);
}

TEST_F(CoreNodeFixture, RetriedLigloRegistrationNeverAdoptsSelf) {
  network_ = std::make_unique<sim::SimNetwork>(&sim_, sim::NetworkOptions{});
  fleet_ = std::make_unique<net::SimTransportFleet>(network_.get());
  infra_ = std::make_unique<SharedInfra>();
  net::SimTransport* server_transport = fleet_->AddNode();
  net::Dispatcher server_dispatcher(server_transport);
  liglo::LigloServer server(server_transport, &server_dispatcher,
                            &infra_->ip_directory, {});
  BestPeerConfig config;
  config.liglo_max_retries = 2;
  auto node =
      BestPeerNode::Create(fleet_->AddNode(), infra_.get(), config).value();
  Result<liglo::LigloClient::RegisterOutcome> outcome =
      Status::Internal("unset");
  node->JoinNetwork(server_transport->local(),
                    infra_->ip_directory.AssignFresh(node->node()),
                    [&outcome](auto r) { outcome = std::move(r); });
  // The server registers the node, but its reply is lost while the node
  // is briefly offline, so the client's retry registers it again — and
  // the second reply's sample lists the first membership.
  while (server.member_count() < 1 && sim_.Step()) {
  }
  network_->SetOnline(node->node(), false);
  sim_.ScheduleAfter(Millis(500),
                     [&]() { network_->SetOnline(node->node(), true); });
  sim_.RunUntilIdle();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(node->liglo_client().retries(), 1u);
  EXPECT_EQ(server.member_count(), 2u);
  EXPECT_EQ(node->peers().size(), 0u) << "a node is never its own peer";
}

TEST_F(CoreNodeFixture, WatchPeerDeliversStoreChangeNotifications) {
  Build(2, {{0, 1}});
  struct Seen {
    UpdateNotifyMessage::Kind kind;
    storm::ObjectId id;
  };
  std::vector<Seen> events;
  nodes_[0]->watch().WatchPeer(
      ids_[1], [&](NodeId provider, UpdateNotifyMessage::Kind kind,
                   storm::ObjectId id) {
        EXPECT_EQ(provider, ids_[1]);
        events.push_back({kind, id});
      });
  sim_.RunUntilIdle();
  EXPECT_EQ(nodes_[1]->watch().watcher_count(), 1u);

  nodes_[1]->ShareObject(100, ToBytes("v1 content")).ok();
  nodes_[1]->UpdateObject(100, ToBytes("v2 content")).ok();
  nodes_[1]->UnshareObject(100).ok();
  sim_.RunUntilIdle();

  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, UpdateNotifyMessage::Kind::kAdded);
  EXPECT_EQ(events[0].id, 100u);
  EXPECT_EQ(events[1].kind, UpdateNotifyMessage::Kind::kUpdated);
  EXPECT_EQ(events[2].kind, UpdateNotifyMessage::Kind::kRemoved);
}

TEST_F(CoreNodeFixture, UnwatchStopsNotifications) {
  Build(2, {{0, 1}});
  int events = 0;
  nodes_[0]->watch().WatchPeer(ids_[1],
                       [&](NodeId, UpdateNotifyMessage::Kind,
                           storm::ObjectId) { ++events; });
  sim_.RunUntilIdle();
  nodes_[1]->ShareObject(1, ToBytes("a")).ok();
  sim_.RunUntilIdle();
  EXPECT_EQ(events, 1);
  nodes_[0]->watch().UnwatchPeer(ids_[1]);
  sim_.RunUntilIdle();
  EXPECT_EQ(nodes_[1]->watch().watcher_count(), 0u);
  nodes_[1]->ShareObject(2, ToBytes("b")).ok();
  sim_.RunUntilIdle();
  EXPECT_EQ(events, 1) << "no notifications after unwatch";
}

TEST_F(CoreNodeFixture, LigloFailureDoesNotBreakPeering) {
  // Paper §3.4, advantage 1: "if a peer A registered with LIGLO A finds
  // that LIGLO A is down, it can still communicate with other peers that
  // it has. In addition, other peers that registered with other LIGLO
  // server will not be affected at all."
  network_ = std::make_unique<sim::SimNetwork>(&sim_, sim::NetworkOptions{});
  fleet_ = std::make_unique<net::SimTransportFleet>(network_.get());
  infra_ = std::make_unique<SharedInfra>();

  net::SimTransport* t1 = fleet_->AddNode();
  net::SimTransport* t2 = fleet_->AddNode();
  NodeId server1 = t1->local();
  net::Dispatcher d1(t1);
  net::Dispatcher d2(t2);
  liglo::LigloServer liglo1(t1, &d1, &infra_->ip_directory, {});
  liglo::LigloServer liglo2(t2, &d2, &infra_->ip_directory, {});

  BestPeerConfig config;
  auto a = BestPeerNode::Create(fleet_->AddNode(), infra_.get(), config)
               .value();
  auto b = BestPeerNode::Create(fleet_->AddNode(), infra_.get(), config)
               .value();
  a->InitStorage({}).ok();
  b->InitStorage({}).ok();
  a->JoinNetwork(server1, infra_->ip_directory.AssignFresh(a->node()),
                 nullptr);
  b->JoinNetwork(t2->local(), infra_->ip_directory.AssignFresh(b->node()),
                 nullptr);
  sim_.RunUntilIdle();
  // Wire the peering (they registered with different LIGLOs, so neither
  // appeared in the other's starter list).
  a->AddDirectPeerLocal(b->node());
  b->AddDirectPeerLocal(a->node());
  Bytes content = ToBytes("needle payload");
  content.resize(128, ' ');
  b->ShareObject(1, content).ok();

  // LIGLO 1 dies.
  network_->SetOnline(server1, false);

  // A can still search through its existing peers...
  uint64_t qid = a->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  EXPECT_EQ(a->FindSession(qid)->total_answers(), 1u);

  // ...and peers of the *other* LIGLO are unaffected: B resolves A's
  // BPID fine? No — A is registered with the dead server; resolving A
  // fails. But resolving members of LIGLO 2 still works.
  Status resolve_dead = Status::OK();
  b->liglo_client().Resolve(a->bpid(), [&](auto r) {
    resolve_dead = r.status();
  });
  Result<liglo::LigloClient::ResolveOutcome> resolve_alive =
      Status::Internal("unset");
  a->liglo_client().Resolve(b->bpid(), [&](auto r) {
    resolve_alive = std::move(r);
  });
  sim_.RunUntilIdle();
  EXPECT_TRUE(resolve_dead.IsUnavailable())
      << "the dead LIGLO's names are temporarily unresolvable";
  ASSERT_TRUE(resolve_alive.ok());
  EXPECT_EQ(resolve_alive->state, liglo::PeerState::kOnline)
      << "the other LIGLO's members are unaffected";
}

TEST_F(CoreNodeFixture, ComputeAgentFiltersAtProvider) {
  Build(2, {{0, 1}});
  // Provider stores CSV-ish rows; requester ships a "grep" filter.
  std::string rows = "alpha,1\nbeta,2\nalpha,3\n";
  Bytes content(rows.begin(), rows.end());
  ASSERT_TRUE(nodes_[1]->ShareObject(1, content).ok());
  // Both nodes know the filter algorithm (its "code" is registered).
  for (auto& node : nodes_) {
    ASSERT_TRUE(node->mutable_filters()
                    .Register("grep-rows",
                              [](const Bytes& object, const Bytes& params)
                                  -> Result<Bytes> {
                                std::string needle = ToString(params);
                                std::string text = ToString(object);
                                std::string out;
                                for (const auto& line :
                                     Split(text, '\n')) {
                                  if (line.find(needle) !=
                                      std::string::npos) {
                                    out += line + "\n";
                                  }
                                }
                                return ToBytes(out);
                              })
                    .ok());
  }
  uint64_t qid =
      nodes_[0]->IssueCompute("grep-rows", ToBytes("alpha")).value();
  sim_.RunUntilIdle();
  const QuerySession* session = nodes_[0]->FindSession(qid);
  ASSERT_EQ(session->responses().size(), 1u);
  EXPECT_EQ(session->total_answers(), 1u);  // One object passed the filter.
}

TEST_F(CoreNodeFixture, ActiveObjectRendersPerAccessLevel) {
  Build(2, {{0, 1}});
  ASSERT_TRUE(nodes_[1]
                  ->active_objects().active_nodes()
                  .Register("redact-secrets", RedactSecretsActiveNode)
                  .ok());
  ActiveObject report;
  report.AddDataElement(ToBytes("Public intro. "));
  report.AddActiveElement("redact-secrets",
                          ToBytes("Data: [SECRET]key=42[/SECRET] end."));
  nodes_[1]->active_objects().ShareActiveObject("report", report);

  std::string public_view, owner_view;
  ActiveObjects& objects = nodes_[0]->active_objects();
  objects.RequestActiveObject(ids_[1], "report", AccessLevel::kPublic,
                              [&](Result<Bytes> r) {
                                ASSERT_TRUE(r.ok());
                                public_view = ToString(r.value());
                              });
  objects.RequestActiveObject(ids_[1], "report", AccessLevel::kOwner,
                              [&](Result<Bytes> r) {
                                ASSERT_TRUE(r.ok());
                                owner_view = ToString(r.value());
                              });
  sim_.RunUntilIdle();
  EXPECT_EQ(public_view, "Public intro. Data: [REDACTED] end.");
  EXPECT_EQ(owner_view,
            "Public intro. Data: [SECRET]key=42[/SECRET] end.");
}

TEST_F(CoreNodeFixture, UnknownActiveObjectReportsError) {
  Build(2, {{0, 1}});
  Status status = Status::OK();
  nodes_[0]->active_objects().RequestActiveObject(
      ids_[1], "ghost", AccessLevel::kPublic,
      [&](Result<Bytes> r) { status = r.status(); });
  sim_.RunUntilIdle();
  EXPECT_TRUE(status.IsNotFound());
}

TEST_F(CoreNodeFixture, ShareFileIsSearchable) {
  Build(2, {{0, 1}});
  ASSERT_TRUE(
      nodes_[1]->ShareFile("doc.txt", ToBytes("has the needle token")).ok());
  EXPECT_TRUE(nodes_[1]->LookupFile("doc.txt").ok());
  EXPECT_FALSE(nodes_[1]->LookupFile("other.txt").ok());
  EXPECT_TRUE(
      nodes_[1]->ShareFile("doc.txt", ToBytes("x")).IsAlreadyExists());
  uint64_t qid = nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  EXPECT_EQ(nodes_[0]->FindSession(qid)->total_answers(), 1u);
}

TEST_F(CoreNodeFixture, MultiKeywordSearchEndToEnd) {
  Build(3, {{0, 1}, {1, 2}});
  // Node 1: objects with both terms; node 2: only one term.
  ASSERT_TRUE(nodes_[1]->ShareObject(
      1, ToBytes("mobile agents in peer networks")).ok());
  ASSERT_TRUE(nodes_[1]->ShareObject(2, ToBytes("peer only")).ok());
  ASSERT_TRUE(nodes_[2]->ShareObject(3, ToBytes("agents only")).ok());
  ASSERT_TRUE(nodes_[2]->ShareObject(4, ToBytes("gamma rays")).ok());

  uint64_t and_query = nodes_[0]->IssueSearch("peer agents").value();
  sim_.RunUntilIdle();
  EXPECT_EQ(nodes_[0]->FindSession(and_query)->total_answers(), 1u);

  uint64_t or_query =
      nodes_[0]->IssueSearch("peer agents OR gamma").value();
  sim_.RunUntilIdle();
  EXPECT_EQ(nodes_[0]->FindSession(or_query)->total_answers(), 2u);
}

TEST_F(CoreNodeFixture, QueryCacheSpeedsRepeatedSearches) {
  Build(2, {{0, 1}});
  // Rebuild node 1's storage with the query cache on.
  storm::StormOptions store;
  store.enable_query_cache = true;
  ASSERT_TRUE(nodes_[1]->InitStorage(store).ok());
  Fill(1, 100, 5);

  uint64_t q1 = nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  SimTime t1 = nodes_[0]->FindSession(q1)->completion_time();
  uint64_t q2 = nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  SimTime t2 = nodes_[0]->FindSession(q2)->completion_time();
  EXPECT_EQ(nodes_[0]->FindSession(q2)->total_answers(), 5u);
  EXPECT_LT(t2, t1) << "cached scan should skip the per-object CPU";
  EXPECT_EQ(nodes_[1]->storage()->query_cache_hits(), 1u);
}

TEST_F(CoreNodeFixture, QueryCacheHitReplyCarriesStoreSize) {
  Build(3, {{0, 1}, {1, 2}});
  storm::StormOptions store;
  store.enable_query_cache = true;
  ASSERT_TRUE(nodes_[1]->InitStorage(store).ok());
  Fill(1, 100, 5);

  nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  // Node 2 has never heard from node 1; its query is answered from node
  // 1's query cache, and the reply still names node 1's store size.
  uint64_t q = nodes_[2]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  EXPECT_EQ(nodes_[2]->FindSession(q)->total_answers(), 5u);
  EXPECT_EQ(nodes_[1]->storage()->query_cache_hits(), 1u);
  EXPECT_EQ(nodes_[2]->shipping().StoreSizeHint(ids_[1]), 100u);
}

TEST_F(CoreNodeFixture, CompressionShrinksWireBytes) {
  BestPeerConfig lzss;
  lzss.codec = "lzss";
  Build(2, {{0, 1}}, lzss);
  Fill(1, 50, 20);
  nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  uint64_t compressed_bytes = network_->total_wire_bytes();

  // Fresh identical network without compression.
  ids_.clear();
  nodes_.clear();
  BestPeerConfig null_codec;
  null_codec.codec = "null";
  Build(2, {{0, 1}}, null_codec);
  Fill(1, 50, 20);
  nodes_[0]->IssueSearch("needle").value();
  sim_.RunUntilIdle();
  uint64_t raw_bytes = network_->total_wire_bytes();
  EXPECT_LT(compressed_bytes, raw_bytes);
}

}  // namespace
}  // namespace bestpeer::core
