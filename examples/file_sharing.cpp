// File sharing at Napster/Gnutella scale, BestPeer style: 16 peers on a
// sparse overlay, mp3-ish file names, repeated searches for the same
// artist. Demonstrates the headline feature: the network *reconfigures
// itself* so that the peers holding the music end up one hop away, and
// repeated searches get dramatically faster.
//
//   ./build/examples/file_sharing

#include <cstdio>
#include <string>
#include <vector>

#include "core/node.h"
#include "net/sim_transport.h"
#include "sim/simulator.h"
#include "workload/topology.h"

using namespace bestpeer;

int main() {
  sim::Simulator simulator;
  sim::SimNetwork network(&simulator, sim::NetworkOptions{});
  bestpeer::net::SimTransportFleet fleet(&network);
  core::SharedInfra infra;

  // A 16-node line overlay: the worst case for a static network — the
  // record collectors live at the far end.
  const size_t kPeers = 16;
  workload::Topology topo = workload::MakeLine(kPeers);

  core::BestPeerConfig config;
  config.max_direct_peers = 4;
  config.strategy = "maxcount";
  config.answer_mode = core::AnswerMode::kIndicate;  // Names first.
  config.auto_fetch = true;   // Then download out-of-network.
  config.default_ttl = 32;    // Deep line: let the agent reach the end.

  std::vector<std::unique_ptr<core::BestPeerNode>> peers;
  for (size_t i = 0; i < kPeers; ++i) {
    auto node = core::BestPeerNode::Create(fleet.AddNode(), &infra, config)
                    .value();
    node->InitStorage({});
    peers.push_back(std::move(node));
  }
  for (const auto& [a, b] : topo.edges) {
    peers[a]->AddDirectPeerLocal(peers[b]->node());
    peers[b]->AddDirectPeerLocal(peers[a]->node());
  }

  // Everyone shares some files; the two nodes at the far end of the line
  // are the Beatles collectors.
  for (size_t i = 0; i < kPeers; ++i) {
    for (int f = 0; f < 30; ++f) {
      peers[i]->ShareFile(
          "track-" + std::to_string(i) + "-" + std::to_string(f) + ".mp3",
          Bytes(1024, static_cast<uint8_t>(f)));
    }
  }
  for (size_t hot : {kPeers - 1, kPeers - 2}) {
    for (int f = 0; f < 5; ++f) {
      peers[hot]->ShareFile(
          "beatles-track-" + std::to_string(hot) + "-" + std::to_string(f) +
              ".mp3",
          ToBytes("beatles audio data " + std::to_string(f)));
    }
  }

  core::BestPeerNode& me = *peers[0];
  std::printf("searching for 'beatles' four times from peer 0...\n\n");
  for (int round = 1; round <= 4; ++round) {
    uint64_t query = me.IssueSearch("beatles").value();
    simulator.RunUntilIdle();
    const core::QuerySession* session = me.FindSession(query);
    std::printf("round %d: %zu files found and downloaded in %s", round,
                session->total_answers(),
                FormatSimTime(session->completion_time()).c_str());
    std::printf("   direct peers:");
    for (auto p : me.peers().Nodes()) std::printf(" %u", p);
    std::printf("\n");
    me.Reconfigure(query).ok();
    simulator.RunUntilIdle();
  }
  std::printf(
      "\nAfter round 1 the collectors (peers %zu, %zu) become direct "
      "peers, so later rounds skip the long overlay walk.\n",
      kPeers - 2, kPeers - 1);
  return 0;
}
