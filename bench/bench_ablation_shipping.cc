// Ablation of the §6 future-work feature implemented here: per-peer
// runtime choice between code shipping (send the agent) and data
// shipping (pull the store, scan locally). Sweeps the remote store size
// to expose the crossover, and shows that adaptive mode converges to the
// better side once it has learned store sizes.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "core/node.h"
#include "core/search_agent.h"
#include "core/shipping.h"
#include "net/sim_transport.h"
#include "sim/simulator.h"

using namespace bestpeer;
using namespace bestpeer::bench;

namespace {

struct RunOutcome {
  double completion_ms;
  double wire_kb;
};

RunOutcome RunDirectSearch(size_t store_objects, core::ShippingMode mode,
                           size_t rounds) {
  sim::Simulator simulator;
  sim::SimNetwork network(&simulator, sim::NetworkOptions{});
  net::SimTransportFleet fleet(&network);
  core::SharedInfra infra;
  core::BestPeerConfig config;

  auto requester =
      core::BestPeerNode::Create(fleet.AddNode(), &infra, config).value();
  auto provider =
      core::BestPeerNode::Create(fleet.AddNode(), &infra, config).value();
  requester->InitStorage({}).ok();
  provider->InitStorage({}).ok();
  requester->AddDirectPeerLocal(provider->node());
  provider->AddDirectPeerLocal(requester->node());
  infra.code_cache.Load(provider->node(), core::kSearchAgentClass);
  infra.code_cache.Load(requester->node(), core::kSearchAgentClass);

  workload::CorpusGenerator corpus({1024, 500, 0.8}, 7);
  for (size_t i = 0; i < store_objects; ++i) {
    provider->ShareObject(i, corpus.MakeObject(i < 3)).ok();
  }

  RunOutcome out{0, 0};
  uint64_t last_query = 0;
  for (size_t r = 0; r < rounds; ++r) {
    last_query = requester
                     ->shipping().IssueDirectSearch(
                         workload::CorpusGenerator::kNeedle, mode)
                     .value();
    simulator.RunUntilIdle();
  }
  const core::QuerySession* session = requester->FindSession(last_query);
  out.completion_ms = ToMillis(session->completion_time());
  out.wire_kb = static_cast<double>(network.total_wire_bytes()) / 1024.0 /
                static_cast<double>(rounds);
  return out;
}

}  // namespace

int main() {
  PrintTitle(
      "Code-shipping vs data-shipping vs adaptive — one provider, store "
      "size sweep (steady-state round of 3; wire KB averaged per round)");
  PrintRowHeader({"objects", "code ms", "code KB", "data ms", "data KB",
                  "adaptive ms", "adaptive KB"});
  for (size_t objects : {1, 5, 10, 25, 50, 100, 250, 1000}) {
    auto code =
        RunDirectSearch(objects, core::ShippingMode::kAlwaysCode, 3);
    auto data =
        RunDirectSearch(objects, core::ShippingMode::kAlwaysData, 3);
    auto adaptive =
        RunDirectSearch(objects, core::ShippingMode::kAdaptive, 3);
    PrintRow(std::to_string(objects),
             {code.completion_ms, code.wire_kb, data.completion_ms,
              data.wire_kb, adaptive.completion_ms, adaptive.wire_kb});
  }
  std::printf(
      "\nExpected: data shipping wins for tiny stores, code shipping for "
      "large ones; adaptive tracks the winner after learning the store "
      "size on round 1.\n");
  return 0;
}
