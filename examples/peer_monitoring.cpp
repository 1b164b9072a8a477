// Peer monitoring (§3.4): "a node may particularly be interested in
// monitoring the updates of a set of peers. These cannot be realized
// with DNS alone." A subscriber watches a publisher's shared store; the
// publisher disconnects and returns with a different IP, but — because
// the subscriber tracks it by BPID through LIGLO — monitoring resumes on
// the same logical peer.
//
//   ./build/examples/peer_monitoring

#include <cstdio>

#include "core/node.h"
#include "liglo/liglo_server.h"
#include "net/dispatcher.h"
#include "net/sim_transport.h"
#include "sim/simulator.h"

using namespace bestpeer;

namespace {

const char* KindName(core::UpdateNotifyMessage::Kind kind) {
  switch (kind) {
    case core::UpdateNotifyMessage::Kind::kAdded:
      return "added";
    case core::UpdateNotifyMessage::Kind::kUpdated:
      return "updated";
    case core::UpdateNotifyMessage::Kind::kRemoved:
      return "removed";
  }
  return "?";
}

}  // namespace

int main() {
  sim::Simulator simulator;
  sim::SimNetwork network(&simulator, sim::NetworkOptions{});
  bestpeer::net::SimTransportFleet fleet(&network);
  core::SharedInfra infra;

  bestpeer::net::SimTransport* server_transport = fleet.AddNode();
  NodeId server_id = server_transport->local();
  bestpeer::net::Dispatcher server_dispatcher(server_transport);
  liglo::LigloServer liglo_server(server_transport, &server_dispatcher,
                                  &infra.ip_directory, {});

  core::BestPeerConfig config;
  auto publisher = core::BestPeerNode::Create(fleet.AddNode(), &infra, config)
                       .value();
  auto subscriber = core::BestPeerNode::Create(fleet.AddNode(), &infra, config)
                        .value();
  publisher->InitStorage({});
  subscriber->InitStorage({});
  publisher->JoinNetwork(
      server_id, infra.ip_directory.AssignFresh(publisher->node()), nullptr);
  simulator.RunUntilIdle();
  subscriber->JoinNetwork(
      server_id, infra.ip_directory.AssignFresh(subscriber->node()),
      nullptr);
  simulator.RunUntilIdle();

  // Subscribe to the publisher's store changes.
  subscriber->watch().WatchPeer(
      publisher->node(),
      [&](NodeId, core::UpdateNotifyMessage::Kind kind,
          storm::ObjectId id) {
        std::printf("  [subscriber] object %llu %s at peer %s\n",
                    static_cast<unsigned long long>(id), KindName(kind),
                    publisher->bpid().ToString().c_str());
      });
  simulator.RunUntilIdle();

  std::printf("publisher shares and edits its price list...\n");
  publisher->ShareObject(1, ToBytes("widget price: 10")).ok();
  publisher->UpdateObject(1, ToBytes("widget price: 12")).ok();
  simulator.RunUntilIdle();

  // The publisher reconnects under a new address; its BPID (and the
  // subscription at the application level) survives.
  std::printf("\npublisher reconnects with a new IP...\n");
  liglo::IpAddress new_ip =
      infra.ip_directory.AssignFresh(publisher->node());
  publisher->RejoinNetwork(new_ip, nullptr);
  simulator.RunUntilIdle();
  subscriber->liglo_client().Resolve(
      publisher->bpid(), [&](Result<liglo::LigloClient::ResolveOutcome> r) {
        if (r.ok()) {
          std::printf("  [subscriber] same BPID %s now at ip %u\n",
                      publisher->bpid().ToString().c_str(), r->ip);
        }
      });
  simulator.RunUntilIdle();

  publisher->UpdateObject(1, ToBytes("widget price: 9 (sale!)")).ok();
  publisher->UnshareObject(1).ok();
  simulator.RunUntilIdle();

  std::printf(
      "\nDNS could not have done this: the publisher's address changed, "
      "but the BPID kept it recognizable as the same peer.\n");
  return 0;
}
