// End-to-end parity check between the two transport backends: the same
// LIGLO + BestPeer configuration is run once over real loopback TCP
// (net::TcpNet) and once in the simulator (net::SimTransportFleet), and
// both must achieve identical, full recall on the keyword workload. A
// table of fleet sizes and seeds (each seed draws the stores and LIGLO's
// starter peers) keeps answers independent of modelled delays, which
// only the simulator charges.

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/node.h"
#include "core/search_agent.h"
#include "liglo/liglo_server.h"
#include "net/dispatcher.h"
#include "net/sim_transport.h"
#include "net/tcp_transport.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "workload/corpus.h"

namespace bestpeer {
namespace {

constexpr size_t kObjectsPerNode = 16;
constexpr size_t kMatchesPerNode = 2;
constexpr size_t kQueries = 3;

/// One row of the parity table.
struct Shape {
  size_t nodes;
  uint64_t seed;
};

core::BestPeerConfig MakeConfig(const Shape& shape) {
  core::BestPeerConfig config;
  config.max_direct_peers = 6;
  config.strategy = "none";
  config.default_ttl = static_cast<uint16_t>(shape.nodes);
  return config;
}

liglo::LigloServerOptions MakeServerOptions(const Shape& shape) {
  liglo::LigloServerOptions options;
  options.initial_peer_count = 4;
  options.sample_seed = shape.seed ^ 0x5EED;
  return options;
}

/// Shares the experiment corpus into node `i` (matches only off-base).
void Populate(core::BestPeerNode* node, size_t i,
              workload::CorpusGenerator& corpus) {
  ASSERT_TRUE(node->InitStorage({}).ok());
  for (size_t o = 0; o < kObjectsPerNode; ++o) {
    bool match = i != 0 && o < kMatchesPerNode;
    ASSERT_TRUE(node->ShareObject((static_cast<uint64_t>(i) << 24) | o,
                                  corpus.MakeObject(match))
                    .ok());
  }
}

/// Answer counts per query for the simulated run of the configuration.
std::vector<size_t> RunSimulated(const Shape& shape) {
  sim::Simulator simulator;
  sim::SimNetwork network(&simulator, {});
  net::SimTransportFleet fleet(&network);
  core::SharedInfra infra;

  net::SimTransport* server_transport = fleet.AddNode();
  net::Dispatcher server_dispatcher(server_transport);
  liglo::LigloServer liglo_server(server_transport, &server_dispatcher,
                                  &infra.ip_directory,
                                  MakeServerOptions(shape));

  workload::CorpusGenerator corpus({512, 300, 0.8}, shape.seed);
  std::vector<std::unique_ptr<core::BestPeerNode>> nodes;
  for (size_t i = 0; i < shape.nodes; ++i) {
    auto node = core::BestPeerNode::Create(fleet.AddNode(), &infra,
                                           MakeConfig(shape));
    Populate(node.value().get(), i, corpus);
    infra.code_cache.Load(node.value()->node(), core::kSearchAgentClass);
    nodes.push_back(std::move(*node));
  }
  for (auto& node : nodes) {
    liglo::IpAddress ip = infra.ip_directory.AssignFresh(node->node());
    node->JoinNetwork(server_transport->local(), ip, nullptr);
    simulator.RunUntilIdle();
  }

  std::vector<size_t> answers;
  for (size_t q = 0; q < kQueries; ++q) {
    uint64_t query_id =
        nodes[0]->IssueSearch(workload::CorpusGenerator::kNeedle).value();
    simulator.RunUntilIdle();
    const core::QuerySession* session = nodes[0]->FindSession(query_id);
    answers.push_back(session == nullptr ? 0 : session->total_answers());
  }
  return answers;
}

/// The same configuration over real loopback TCP sockets. Each query is
/// read once it has `expected` answers, or after 30 s.
std::vector<size_t> RunOverTcp(const Shape& shape, size_t expected) {
  net::TcpNet tcpnet;
  core::SharedInfra infra;

  net::TcpTransport* server_transport = tcpnet.AddNode().value();
  net::Dispatcher server_dispatcher(server_transport);
  liglo::LigloServer liglo_server(server_transport, &server_dispatcher,
                                  &infra.ip_directory,
                                  MakeServerOptions(shape));

  workload::CorpusGenerator corpus({512, 300, 0.8}, shape.seed);
  std::vector<std::unique_ptr<core::BestPeerNode>> nodes;
  for (size_t i = 0; i < shape.nodes; ++i) {
    auto node = core::BestPeerNode::Create(tcpnet.AddNode().value(), &infra,
                                           MakeConfig(shape));
    Populate(node.value().get(), i, corpus);
    infra.code_cache.Load(node.value()->node(), core::kSearchAgentClass);
    nodes.push_back(std::move(*node));
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

  for (auto& node : nodes) {
    bool joined = false;
    tcpnet.Run([&]() {
      liglo::IpAddress ip = infra.ip_directory.AssignFresh(node->node());
      node->JoinNetwork(server_transport->local(), ip,
                        [&joined](auto) { joined = true; });
    });
    EXPECT_TRUE(wait_until([&]() { return joined; }));
  }

  std::vector<size_t> answers;
  for (size_t q = 0; q < kQueries; ++q) {
    uint64_t query_id = 0;
    tcpnet.Run([&]() {
      query_id =
          nodes[0]->IssueSearch(workload::CorpusGenerator::kNeedle).value();
    });
    wait_until([&]() {
      const core::QuerySession* s = nodes[0]->FindSession(query_id);
      return s != nullptr && s->total_answers() >= expected;
    });
    size_t got = 0;
    tcpnet.Run([&]() {
      const core::QuerySession* s = nodes[0]->FindSession(query_id);
      if (s != nullptr) got = s->total_answers();
    });
    answers.push_back(got);
  }
  tcpnet.Stop();
  return answers;
}

class NetLoopbackTest : public ::testing::TestWithParam<Shape> {};

TEST_P(NetLoopbackTest, TcpAnswersMatchSimulated) {
  const Shape& shape = GetParam();
  const size_t expected = (shape.nodes - 1) * kMatchesPerNode;
  std::vector<size_t> sim_answers = RunSimulated(shape);
  ASSERT_EQ(sim_answers.size(), kQueries);
  for (size_t a : sim_answers) EXPECT_EQ(a, expected);

  std::vector<size_t> tcp_answers = RunOverTcp(shape, expected);
  EXPECT_EQ(tcp_answers, sim_answers);
}

INSTANTIATE_TEST_SUITE_P(
    Fleets, NetLoopbackTest,
    ::testing::Values(Shape{4, 7}, Shape{4, 11}, Shape{8, 7}, Shape{8, 11},
                      Shape{16, 7}, Shape{16, 11}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "n" + std::to_string(info.param.nodes) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace bestpeer
