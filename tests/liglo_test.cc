#include <gtest/gtest.h>

#include "liglo/bpid.h"
#include "liglo/ip_directory.h"
#include "liglo/liglo_client.h"
#include "liglo/liglo_server.h"
#include "net/dispatcher.h"
#include "net/sim_transport.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "util/wire.h"

namespace bestpeer::liglo {
namespace {

// ---------------------------------------------------------------- Bpid

TEST(BpidTest, ToStringAndParse) {
  Bpid bpid{3, 17};
  EXPECT_EQ(bpid.ToString(), "3/17");
  auto parsed = Bpid::Parse("3/17").value();
  EXPECT_EQ(parsed, bpid);
  EXPECT_FALSE(Bpid::Parse("3").ok());
  EXPECT_FALSE(Bpid::Parse("a/b").ok());
  EXPECT_FALSE(Bpid::Parse("3/17/9").ok());
  EXPECT_FALSE(Bpid::Parse("/17").ok());
}

TEST(BpidTest, EncodeDecode) {
  Bpid bpid{7, 1234};
  EXPECT_EQ(wire::Decode<Bpid>(wire::Encode(bpid)).value(), bpid);
}

TEST(BpidTest, Validity) {
  EXPECT_FALSE(Bpid{}.IsValid());
  EXPECT_TRUE((Bpid{1, 0}).IsValid());
}

// ---------------------------------------------------------------- IpDirectory

TEST(IpDirectoryTest, AssignResolveRelease) {
  IpDirectory dir;
  ASSERT_TRUE(dir.Assign(100, 5).ok());
  EXPECT_EQ(dir.Resolve(100).value(), 5u);
  EXPECT_EQ(dir.AddressOf(5), 100u);
  // Reassign the node to a new address.
  ASSERT_TRUE(dir.Assign(200, 5).ok());
  EXPECT_FALSE(dir.Resolve(100).ok());
  EXPECT_EQ(dir.Resolve(200).value(), 5u);
  // Another node cannot steal the address.
  EXPECT_TRUE(dir.Assign(200, 6).IsAlreadyExists());
  dir.Release(5);
  EXPECT_FALSE(dir.Resolve(200).ok());
  EXPECT_EQ(dir.AddressOf(5), kInvalidIp);
}

TEST(IpDirectoryTest, FreshAddressesAreUnique) {
  IpDirectory dir;
  IpAddress a = dir.AssignFresh(1);
  IpAddress b = dir.AssignFresh(2);
  EXPECT_NE(a, b);
  EXPECT_EQ(dir.Resolve(a).value(), 1u);
  EXPECT_EQ(dir.Resolve(b).value(), 2u);
}

TEST(IpDirectoryTest, InvalidAddressRejected) {
  IpDirectory dir;
  EXPECT_FALSE(dir.Assign(kInvalidIp, 1).ok());
}

// ---------------------------------------------------------------- protocol

class LigloFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<sim::SimNetwork>(&sim_, sim::NetworkOptions{});
    fleet_ = std::make_unique<net::SimTransportFleet>(network_.get());
    server_transport_ = fleet_->AddNode();
    server_node_ = server_transport_->local();
    server_dispatcher_ = std::make_unique<net::Dispatcher>(server_transport_);
  }

  void MakeServer(LigloServerOptions options = {}) {
    server_ = std::make_unique<LigloServer>(server_transport_,
                                            server_dispatcher_.get(),
                                            &ips_, options);
  }

  struct ClientBundle {
    NodeId node;
    net::SimTransport* transport;
    std::unique_ptr<net::Dispatcher> dispatcher;
    std::unique_ptr<LigloClient> client;
    IpAddress ip;
  };

  ClientBundle MakeClient(LigloClientOptions options = {}) {
    ClientBundle b;
    b.transport = fleet_->AddNode();
    b.node = b.transport->local();
    b.dispatcher = std::make_unique<net::Dispatcher>(b.transport);
    b.client = std::make_unique<LigloClient>(b.transport, b.dispatcher.get(),
                                             &ips_, options);
    b.ip = ips_.AssignFresh(b.node);
    return b;
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::SimNetwork> network_;
  std::unique_ptr<net::SimTransportFleet> fleet_;
  net::SimTransport* server_transport_ = nullptr;
  NodeId server_node_ = kInvalidNode;
  std::unique_ptr<net::Dispatcher> server_dispatcher_;
  std::unique_ptr<LigloServer> server_;
  IpDirectory ips_;
};

TEST_F(LigloFixture, RegisterAssignsBpidAndPeers) {
  MakeServer();
  auto c1 = MakeClient();
  auto c2 = MakeClient();

  Result<LigloClient::RegisterOutcome> first = Status::Internal("unset");
  c1.client->Register(server_node_, c1.ip,
                      [&](Result<LigloClient::RegisterOutcome> r) {
                        first = std::move(r);
                      });
  sim_.RunUntilIdle();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->bpid.liglo_id, server_node_);
  EXPECT_TRUE(first->peers.empty());  // First member gets no peers.
  EXPECT_TRUE(c1.client->registered());

  Result<LigloClient::RegisterOutcome> second = Status::Internal("unset");
  c2.client->Register(server_node_, c2.ip,
                      [&](Result<LigloClient::RegisterOutcome> r) {
                        second = std::move(r);
                      });
  sim_.RunUntilIdle();
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->peers.size(), 1u);
  EXPECT_EQ(second->peers[0].bpid, first->bpid);
  EXPECT_EQ(second->peers[0].ip, c1.ip);
  EXPECT_NE(second->bpid, first->bpid);
  EXPECT_EQ(server_->member_count(), 2u);
  EXPECT_EQ(server_->registrations(), 2u);
}

TEST_F(LigloFixture, CapacityLimitRejects) {
  LigloServerOptions options;
  options.capacity = 1;
  MakeServer(options);
  auto c1 = MakeClient();
  auto c2 = MakeClient();
  Status second_status = Status::OK();
  c1.client->Register(server_node_, c1.ip, nullptr);
  sim_.RunUntilIdle();
  c2.client->Register(server_node_, c2.ip,
                      [&](Result<LigloClient::RegisterOutcome> r) {
                        second_status = r.status();
                      });
  sim_.RunUntilIdle();
  EXPECT_TRUE(second_status.IsResourceExhausted());
  EXPECT_EQ(server_->member_count(), 1u);
  EXPECT_EQ(server_->rejections(), 1u);
}

TEST_F(LigloFixture, ResolveReturnsCurrentAddress) {
  MakeServer();
  auto c1 = MakeClient();
  auto c2 = MakeClient();
  Bpid bpid1;
  c1.client->Register(server_node_, c1.ip,
                      [&](Result<LigloClient::RegisterOutcome> r) {
                        bpid1 = r->bpid;
                      });
  c2.client->Register(server_node_, c2.ip, nullptr);
  sim_.RunUntilIdle();

  Result<LigloClient::ResolveOutcome> res = Status::Internal("unset");
  c2.client->Resolve(bpid1, [&](Result<LigloClient::ResolveOutcome> r) {
    res = std::move(r);
  });
  sim_.RunUntilIdle();
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->state, PeerState::kOnline);
  EXPECT_EQ(res->ip, c1.ip);
}

TEST_F(LigloFixture, ResolveUnknownBpid) {
  MakeServer();
  auto c1 = MakeClient();
  c1.client->Register(server_node_, c1.ip, nullptr);
  sim_.RunUntilIdle();
  Result<LigloClient::ResolveOutcome> res = Status::Internal("unset");
  c1.client->Resolve(Bpid{server_node_, 999},
                     [&](Result<LigloClient::ResolveOutcome> r) {
                       res = std::move(r);
                     });
  sim_.RunUntilIdle();
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->state, PeerState::kUnknown);
}

TEST_F(LigloFixture, UpdateAddressChangesResolution) {
  MakeServer();
  auto c1 = MakeClient();
  Bpid bpid1;
  c1.client->Register(server_node_, c1.ip,
                      [&](Result<LigloClient::RegisterOutcome> r) {
                        bpid1 = r->bpid;
                      });
  sim_.RunUntilIdle();

  // Simulate reconnection with a new address.
  IpAddress new_ip = ips_.AssignFresh(c1.node);
  Status update = Status::Internal("unset");
  c1.client->UpdateAddress(new_ip, true, [&](Status s) { update = s; });
  sim_.RunUntilIdle();
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(server_->MemberIp(bpid1).value(), new_ip);
}

TEST_F(LigloFixture, GracefulOfflineReportedByResolve) {
  MakeServer();
  auto c1 = MakeClient();
  auto c2 = MakeClient();
  Bpid bpid1;
  c1.client->Register(server_node_, c1.ip,
                      [&](Result<LigloClient::RegisterOutcome> r) {
                        bpid1 = r->bpid;
                      });
  c2.client->Register(server_node_, c2.ip, nullptr);
  sim_.RunUntilIdle();
  c1.client->UpdateAddress(c1.ip, /*online=*/false, nullptr);
  sim_.RunUntilIdle();

  Result<LigloClient::ResolveOutcome> res = Status::Internal("unset");
  c2.client->Resolve(bpid1, [&](Result<LigloClient::ResolveOutcome> r) {
    res = std::move(r);
  });
  sim_.RunUntilIdle();
  EXPECT_EQ(res->state, PeerState::kOffline);
}

TEST_F(LigloFixture, RejoinRefreshesPeers) {
  MakeServer();
  auto c1 = MakeClient();
  auto c2 = MakeClient();
  auto c3 = MakeClient();
  Bpid bpid2, bpid3;
  c1.client->Register(server_node_, c1.ip, nullptr);
  c2.client->Register(server_node_, c2.ip,
                      [&](Result<LigloClient::RegisterOutcome> r) {
                        bpid2 = r->bpid;
                      });
  c3.client->Register(server_node_, c3.ip,
                      [&](Result<LigloClient::RegisterOutcome> r) {
                        bpid3 = r->bpid;
                      });
  sim_.RunUntilIdle();

  // c2 changes address; c3 goes offline.
  IpAddress c2_new = ips_.AssignFresh(c2.node);
  c2.client->UpdateAddress(c2_new, true, nullptr);
  c3.client->UpdateAddress(c3.ip, false, nullptr);
  sim_.RunUntilIdle();

  Result<LigloClient::RejoinOutcome> rejoin = Status::Internal("unset");
  c1.client->Rejoin(c1.ip, {bpid2, bpid3},
                    [&](Result<LigloClient::RejoinOutcome> r) {
                      rejoin = std::move(r);
                    });
  sim_.RunUntilIdle();
  ASSERT_TRUE(rejoin.ok());
  ASSERT_EQ(rejoin->peers.size(), 2u);
  EXPECT_EQ(rejoin->peers[0].state, PeerState::kOnline);
  EXPECT_EQ(rejoin->peers[0].ip, c2_new);
  EXPECT_EQ(rejoin->peers[1].state, PeerState::kOffline);
}

TEST_F(LigloFixture, RequestToDeadServerTimesOut) {
  MakeServer();
  auto c1 = MakeClient();
  network_->SetOnline(server_node_, false);
  Status status = Status::OK();
  c1.client->Register(server_node_, c1.ip,
                      [&](Result<LigloClient::RegisterOutcome> r) {
                        status = r.status();
                      });
  sim_.RunUntilIdle();
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_EQ(c1.client->timeouts(), 1u);
}

TEST_F(LigloFixture, RetryRecoversFromTransientServerOutage) {
  MakeServer();
  LigloClientOptions retrying;
  retrying.max_retries = 2;
  auto c1 = MakeClient(retrying);
  network_->SetOnline(server_node_, false);
  // The server comes back after the first attempt has already timed out
  // (timeout 2s) but before the backed-off resend (~200ms later) lands.
  sim_.ScheduleAt(Seconds(2) + Millis(50), [&]() {
    network_->SetOnline(server_node_, true);
  });

  Result<LigloClient::RegisterOutcome> outcome = Status::Internal("unset");
  c1.client->Register(server_node_, c1.ip,
                      [&](Result<LigloClient::RegisterOutcome> r) {
                        outcome = std::move(r);
                      });
  sim_.RunUntilIdle();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(c1.client->registered());
  EXPECT_EQ(c1.client->timeouts(), 1u);
  EXPECT_EQ(c1.client->retries(), 1u);
}

TEST_F(LigloFixture, ExhaustedRetriesFailUnavailable) {
  MakeServer();
  LigloClientOptions retrying;
  retrying.max_retries = 2;
  auto c1 = MakeClient(retrying);
  network_->SetOnline(server_node_, false);  // And it stays dead.
  Status status = Status::OK();
  c1.client->Register(server_node_, c1.ip,
                      [&](Result<LigloClient::RegisterOutcome> r) {
                        status = r.status();
                      });
  sim_.RunUntilIdle();
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_EQ(c1.client->timeouts(), 3u);  // Original + 2 resends.
  EXPECT_EQ(c1.client->retries(), 2u);
}

TEST_F(LigloFixture, UpdateRequestsAreNeverRetried) {
  MakeServer();
  LigloClientOptions retrying;
  retrying.max_retries = 3;
  auto c1 = MakeClient(retrying);
  c1.client->Register(server_node_, c1.ip, nullptr);
  sim_.RunUntilIdle();
  network_->SetOnline(server_node_, false);
  Status status = Status::OK();
  c1.client->UpdateAddress(c1.ip, true, [&](Status s) { status = s; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_EQ(c1.client->timeouts(), 1u);  // Fire-once: no resends.
  EXPECT_EQ(c1.client->retries(), 0u);
}

TEST_F(LigloFixture, LateReplyAfterTimeoutIsCountedAndIgnored) {
  MakeServer();
  LigloClientOptions impatient;
  impatient.request_timeout = Micros(100);  // Far below one RTT.
  auto c1 = MakeClient(impatient);
  Status status = Status::OK();
  c1.client->Register(server_node_, c1.ip,
                      [&](Result<LigloClient::RegisterOutcome> r) {
                        status = r.status();
                      });
  sim_.RunUntilIdle();
  // The request timed out before the (successful) response arrived; the
  // straggler must be counted and must not resurrect the callback.
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_FALSE(c1.client->registered());
  EXPECT_EQ(c1.client->timeouts(), 1u);
  EXPECT_EQ(c1.client->late_replies(), 1u);
}

TEST(LigloRetryUnderLossTest, RetryUntilSuccessUnderMessageLoss) {
  sim::Simulator sim;
  sim::FaultOptions fault_options;
  fault_options.seed = 11;
  fault_options.message_loss = 0.3;
  sim::FaultInjector* faults = sim.EnableFaults(fault_options);
  sim::SimNetwork network(&sim, sim::NetworkOptions{});
  net::SimTransportFleet fleet(&network);
  IpDirectory ips;

  net::SimTransport* server_transport = fleet.AddNode();
  NodeId server_node = server_transport->local();
  net::Dispatcher server_dispatcher(server_transport);
  LigloServer server(server_transport, &server_dispatcher, &ips, {});

  net::SimTransport* client_transport = fleet.AddNode();
  NodeId client_node = client_transport->local();
  net::Dispatcher client_dispatcher(client_transport);
  LigloClientOptions retrying;
  retrying.max_retries = 10;
  LigloClient client(client_transport, &client_dispatcher, &ips, retrying);
  IpAddress ip = ips.AssignFresh(client_node);

  Result<LigloClient::RegisterOutcome> outcome = Status::Internal("unset");
  client.Register(server_node, ip,
                  [&](Result<LigloClient::RegisterOutcome> r) {
                    outcome = std::move(r);
                  });
  sim.RunUntilIdle();
  // At 30% loss a round trip fails roughly half the time; with 10
  // deterministic retries this seed registers.
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(client.registered());
  EXPECT_GT(faults->drops(), 0u);
  EXPECT_EQ(client.retries(), client.timeouts());
}

TEST_F(LigloFixture, SweepMarksSilentMembersOffline) {
  LigloServerOptions options;
  options.sweep_interval = Millis(100);
  options.ping_timeout = Millis(20);
  MakeServer(options);
  auto c1 = MakeClient();
  auto c2 = MakeClient();
  Bpid bpid1, bpid2;
  c1.client->Register(server_node_, c1.ip,
                      [&](Result<LigloClient::RegisterOutcome> r) {
                        bpid1 = r->bpid;
                      });
  c2.client->Register(server_node_, c2.ip,
                      [&](Result<LigloClient::RegisterOutcome> r) {
                        bpid2 = r->bpid;
                      });
  sim_.RunUntilIdle();
  EXPECT_EQ(server_->online_count(), 2u);

  // c2 silently disappears (no graceful offline notice).
  network_->SetOnline(c2.node, false);
  server_->StartSweep();
  sim_.RunUntil(sim_.now() + Millis(500));
  server_->StopSweep();
  sim_.RunUntilIdle();

  EXPECT_EQ(server_->MemberState(bpid1).value(), PeerState::kOnline);
  EXPECT_EQ(server_->MemberState(bpid2).value(), PeerState::kOffline);
}

TEST_F(LigloFixture, DiscoverPeersSamplesOnlineMembers) {
  MakeServer();
  std::vector<ClientBundle> clients;
  for (int i = 0; i < 5; ++i) clients.push_back(MakeClient());
  for (auto& c : clients) {
    c.client->Register(server_node_, c.ip, nullptr);
    sim_.RunUntilIdle();
  }
  // Member 4 asks for peers: gets up to initial_peer_count (4) entries,
  // never itself.
  Result<std::vector<PeerEntry>> peers = Status::Internal("unset");
  clients[4].client->DiscoverPeers(
      [&](Result<std::vector<PeerEntry>> r) { peers = std::move(r); });
  sim_.RunUntilIdle();
  ASSERT_TRUE(peers.ok());
  EXPECT_EQ(peers->size(), 4u);
  for (const auto& entry : peers.value()) {
    EXPECT_NE(entry.bpid, clients[4].client->bpid());
  }
}

TEST_F(LigloFixture, DiscoverPeersRequiresRegistration) {
  MakeServer();
  auto c = MakeClient();
  Status status = Status::OK();
  c.client->DiscoverPeers(
      [&](Result<std::vector<PeerEntry>> r) { status = r.status(); });
  EXPECT_TRUE(status.IsFailedPrecondition());
}

TEST_F(LigloFixture, DiscoverPeersExcludesOfflineMembers) {
  MakeServer();
  auto c1 = MakeClient();
  auto c2 = MakeClient();
  auto c3 = MakeClient();
  for (auto* c : {&c1, &c2, &c3}) {
    c->client->Register(server_node_, c->ip, nullptr);
    sim_.RunUntilIdle();
  }
  c2.client->UpdateAddress(c2.ip, /*online=*/false, nullptr);
  sim_.RunUntilIdle();
  Result<std::vector<PeerEntry>> peers = Status::Internal("unset");
  c3.client->DiscoverPeers(
      [&](Result<std::vector<PeerEntry>> r) { peers = std::move(r); });
  sim_.RunUntilIdle();
  ASSERT_TRUE(peers.ok());
  ASSERT_EQ(peers->size(), 1u);
  EXPECT_EQ(peers->front().bpid, c1.client->bpid());
}

TEST_F(LigloFixture, RegisterWithFallbackSkipsFullServer) {
  LigloServerOptions tiny;
  tiny.capacity = 1;
  MakeServer(tiny);  // First server: capacity 1.
  net::SimTransport* server2_transport = fleet_->AddNode();
  NodeId server2_node = server2_transport->local();
  net::Dispatcher dispatcher2(server2_transport);
  LigloServer server2(server2_transport, &dispatcher2, &ips_, {});

  auto c1 = MakeClient();
  auto c2 = MakeClient();
  c1.client->Register(server_node_, c1.ip, nullptr);
  sim_.RunUntilIdle();

  Result<LigloClient::RegisterOutcome> outcome = Status::Internal("unset");
  c2.client->RegisterWithFallback(
      {server_node_, server2_node}, c2.ip,
      [&](Result<LigloClient::RegisterOutcome> r) { outcome = std::move(r); });
  sim_.RunUntilIdle();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->bpid.liglo_id, server2_node)
      << "the full first server must be skipped";
  EXPECT_EQ(server2.member_count(), 1u);
}

TEST_F(LigloFixture, RegisterWithFallbackExhaustsAllServers) {
  LigloServerOptions tiny;
  tiny.capacity = 0;
  MakeServer(tiny);
  auto filler = MakeClient();
  auto c2 = MakeClient();
  // Make the only server full.
  LigloServerOptions full;
  full.capacity = 1;
  server_ = std::make_unique<LigloServer>(server_transport_,
                                          server_dispatcher_.get(), &ips_,
                                          full);
  filler.client->Register(server_node_, filler.ip, nullptr);
  sim_.RunUntilIdle();

  Status status = Status::OK();
  c2.client->RegisterWithFallback(
      {server_node_}, c2.ip,
      [&](Result<LigloClient::RegisterOutcome> r) { status = r.status(); });
  sim_.RunUntilIdle();
  EXPECT_TRUE(status.IsResourceExhausted());
}

TEST_F(LigloFixture, MultipleServersIndependentNamespaces) {
  MakeServer();
  // Second server on its own node.
  net::SimTransport* server2_transport = fleet_->AddNode();
  NodeId server2_node = server2_transport->local();
  net::Dispatcher dispatcher2(server2_transport);
  LigloServer server2(server2_transport, &dispatcher2, &ips_, {});

  auto c1 = MakeClient();
  auto c2 = MakeClient();
  Bpid bpid1, bpid2;
  c1.client->Register(server_node_, c1.ip,
                      [&](Result<LigloClient::RegisterOutcome> r) {
                        bpid1 = r->bpid;
                      });
  c2.client->Register(server2_node, c2.ip,
                      [&](Result<LigloClient::RegisterOutcome> r) {
                        bpid2 = r->bpid;
                      });
  sim_.RunUntilIdle();
  // Same node_id may repeat across servers; liglo_id disambiguates.
  EXPECT_EQ(bpid1.node_id, bpid2.node_id);
  EXPECT_NE(bpid1.liglo_id, bpid2.liglo_id);
  // Cross-resolution works: c1 resolves c2 via server 2.
  Result<LigloClient::ResolveOutcome> res = Status::Internal("unset");
  c1.client->Resolve(bpid2, [&](Result<LigloClient::ResolveOutcome> r) {
    res = std::move(r);
  });
  sim_.RunUntilIdle();
  EXPECT_EQ(res->state, PeerState::kOnline);
  EXPECT_EQ(res->ip, c2.ip);
}

}  // namespace
}  // namespace bestpeer::liglo
