// Micro-benchmarks of the mobile-agent machinery: message encode/decode,
// state serialization round trips, and full launch-to-execution cycles
// through the simulated engine (events per wall-clock second bound how
// many agent floods an experiment can run).

#include <benchmark/benchmark.h>

#include "agent/agent_message.h"
#include "agent/agent_registry.h"
#include "agent/agent_runtime.h"
#include "core/search_agent.h"
#include "net/dispatcher.h"
#include "net/sim_transport.h"
#include "sim/simulator.h"

namespace {

using namespace bestpeer;

void BM_AgentMessageEncodeDecode(benchmark::State& state) {
  agent::AgentMessage msg;
  msg.agent_id = 42;
  msg.class_name = "StormSearchAgent";
  msg.origin = 7;
  msg.ttl = 7;
  msg.hops = 3;
  msg.state = Bytes(static_cast<size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    Bytes encoded = msg.Encode();
    auto decoded = agent::AgentMessage::Decode(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AgentMessageEncodeDecode)->Arg(64)->Arg(4096);

void BM_SearchAgentStateRoundTrip(benchmark::State& state) {
  core::SearchAgent agent(99, "some keyword phrase",
                          core::AnswerMode::kDirect);
  for (auto _ : state) {
    Bytes saved = agent.SaveState();
    core::SearchAgent fresh;
    Status s = fresh.LoadState(saved);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SearchAgentStateRoundTrip);

// A full agent flood over a line overlay, through the whole stack
// (encode, compress, NIC, dedup, execute, forward).
void BM_AgentFloodLine(benchmark::State& state) {
  const size_t kNodes = static_cast<size_t>(state.range(0));

  class NoopAgent : public agent::Agent {
   public:
    std::string_view class_name() const override { return "Noop"; }
    Bytes SaveState() const override { return {}; }
    Status LoadState(const Bytes&) override { return Status::OK(); }
    Status Execute(agent::AgentContext&) override { return Status::OK(); }
  };
  class NullHost : public agent::AgentHost {
   public:
    explicit NullHost(NodeId node) : node_(node) {}
    storm::Storm* storage() override { return nullptr; }
    NodeId host_node() const override { return node_; }

   private:
    NodeId node_;
  };

  for (auto _ : state) {
    sim::Simulator simulator;
    sim::SimNetwork network(&simulator, sim::NetworkOptions{});
    net::SimTransportFleet fleet(&network);
    agent::AgentRegistry registry;
    registry.Register("Noop", 1024, []() {
      return std::make_unique<NoopAgent>();
    }).ok();
    agent::CodeCache cache;
    std::vector<std::unique_ptr<NullHost>> hosts;
    std::vector<std::unique_ptr<net::Dispatcher>> dispatchers;
    std::vector<std::unique_ptr<agent::AgentRuntime>> runtimes;
    std::vector<std::vector<NodeId>> neighbors(kNodes);
    std::vector<NodeId> ids;
    for (size_t i = 0; i < kNodes; ++i) {
      ids.push_back(network.AddNode());
      hosts.push_back(std::make_unique<NullHost>(ids[i]));
      dispatchers.push_back(
          std::make_unique<net::Dispatcher>(fleet.For(ids[i])));
    }
    for (size_t i = 0; i < kNodes; ++i) {
      if (i > 0) neighbors[i].push_back(ids[i - 1]);
      if (i + 1 < kNodes) neighbors[i].push_back(ids[i + 1]);
      size_t idx = i;
      runtimes.push_back(std::make_unique<agent::AgentRuntime>(
          fleet.For(ids[i]), &registry, &cache, hosts[i].get(),
          [&neighbors, idx]() { return neighbors[idx]; },
          agent::AgentRuntimeOptions{}));
      dispatchers[i]->Register(agent::kAgentTransferType,
                               [&runtimes, idx](const net::Message& m) {
                                 runtimes[idx]->OnMessage(m).ok();
                               });
    }
    NoopAgent agent;
    runtimes[0]
        ->Launch(1, agent, static_cast<uint16_t>(kNodes), neighbors[0])
        .ok();
    simulator.RunUntilIdle();
    benchmark::DoNotOptimize(runtimes[kNodes - 1]->agents_executed());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kNodes));
}
BENCHMARK(BM_AgentFloodLine)->Arg(8)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
