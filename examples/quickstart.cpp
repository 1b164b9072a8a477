// Quickstart: build a small BestPeer network, share a few documents,
// run a keyword search through the mobile-agent engine, and print what
// came back and how fast.
//
//   cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "core/node.h"
#include "net/sim_transport.h"
#include "sim/simulator.h"

using namespace bestpeer;

int main() {
  // One simulated LAN, one shared infrastructure (agent registry, code
  // cache, address plane).
  sim::Simulator simulator;
  sim::SimNetwork network(&simulator, sim::NetworkOptions{});
  bestpeer::net::SimTransportFleet fleet(&network);
  core::SharedInfra infra;

  // Three nodes in a line: alice - bob - carol. Only alice issues
  // queries; bob and carol share data.
  core::BestPeerConfig config;
  config.max_direct_peers = 4;
  config.strategy = "maxcount";

  auto alice = core::BestPeerNode::Create(fleet.AddNode(), &infra, config)
                   .value();
  auto bob = core::BestPeerNode::Create(fleet.AddNode(), &infra,
                                        config)
                 .value();
  auto carol = core::BestPeerNode::Create(fleet.AddNode(), &infra, config)
                   .value();
  for (auto* node : {alice.get(), bob.get(), carol.get()}) {
    node->InitStorage({});  // In-memory StorM store.
  }
  alice->AddDirectPeerLocal(bob->node());
  bob->AddDirectPeerLocal(alice->node());
  bob->AddDirectPeerLocal(carol->node());
  carol->AddDirectPeerLocal(bob->node());

  // Share some documents.
  bob->ShareFile("p2p-notes.txt",
                 ToBytes("notes about peer to peer systems and agents"));
  bob->ShareFile("recipe.txt", ToBytes("how to cook rice"));
  carol->ShareFile("thesis.txt",
                   ToBytes("mobile agents in peer to peer networks"));
  carol->ShareFile("grocery.txt", ToBytes("milk eggs bread"));

  // Search for "agents": a StorM agent is cloned through the overlay,
  // scans each node's store, and sends matches straight back to alice.
  uint64_t query = alice->IssueSearch("agents").value();
  simulator.RunUntilIdle();

  const core::QuerySession* session = alice->FindSession(query);
  std::printf("query 'agents' finished in %s\n",
              FormatSimTime(session->completion_time()).c_str());
  std::printf("answers: %zu from %zu peers\n", session->total_answers(),
              session->responder_count());
  for (const auto& event : session->responses()) {
    std::printf("  peer %u responded after %s with %zu match(es) "
                "(%u overlay hop(s) away)\n",
                event.node,
                FormatSimTime(event.time - session->start_time()).c_str(),
                event.answers, event.hops);
  }

  // Self-reconfiguration: alice now keeps her best answerers close.
  alice->Reconfigure(query).ok();
  simulator.RunUntilIdle();
  std::printf("alice's direct peers after reconfiguration:");
  for (auto peer : alice->peers().Nodes()) std::printf(" %u", peer);
  std::printf("\n");
  return 0;
}
