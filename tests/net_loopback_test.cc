// End-to-end parity check between the two transport backends: the same
// LIGLO + BestPeer configuration is run once over real loopback TCP
// (net::TcpNet) and once in the simulator (net::SimTransportFleet), and
// both must achieve identical, full recall on the keyword workload. A
// table of fleet sizes and seeds (each seed draws the stores and LIGLO's
// starter peers) keeps answers independent of modelled delays, which
// only the simulator charges. One row has two issuers whose queries are
// in flight at once, so over TCP their agents' scans share the worker
// pool. Two rows arm optional agent features: index search (scans
// offloaded with the index path) and the result cache (probe agents run
// inline, and repeat queries get "not modified" replies).

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

/// One row of the parity table. Nodes 0 .. issuers-1 issue each round's
/// queries together and hold no matches. `config` carries the row's
/// features; MakeConfig sets the overlay fields.
struct Shape {
  size_t nodes;
  uint64_t seed;
  size_t issuers = 1;
  core::BestPeerConfig config = {};
};

core::BestPeerConfig MakeConfig(const Shape& shape) {
  core::BestPeerConfig config = shape.config;
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

/// Shares the experiment corpus into node `i` (matches only off the
/// issuers).
void Populate(core::BestPeerNode* node, size_t i, const Shape& shape,
              workload::CorpusGenerator& corpus) {
  ASSERT_TRUE(node->InitStorage({}).ok());
  for (size_t o = 0; o < kObjectsPerNode; ++o) {
    bool match = i >= shape.issuers && o < kMatchesPerNode;
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
    Populate(node.value().get(), i, shape, corpus);
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
    std::vector<uint64_t> query_ids;
    for (size_t i = 0; i < shape.issuers; ++i) {
      query_ids.push_back(
          nodes[i]->IssueSearch(workload::CorpusGenerator::kNeedle).value());
    }
    simulator.RunUntilIdle();
    for (size_t i = 0; i < shape.issuers; ++i) {
      const core::QuerySession* session = nodes[i]->FindSession(query_ids[i]);
      answers.push_back(session == nullptr ? 0 : session->total_answers());
    }
  }
  return answers;
}

/// The same configuration over real loopback TCP sockets. Each round's
/// queries are read once each has `expected` answers, or after 30 s.
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
    Populate(node.value().get(), i, shape, corpus);
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
    std::vector<uint64_t> query_ids;
    tcpnet.Run([&]() {
      for (size_t i = 0; i < shape.issuers; ++i) {
        query_ids.push_back(
            nodes[i]->IssueSearch(workload::CorpusGenerator::kNeedle).value());
      }
    });
    auto answers_of = [&](size_t i) -> size_t {
      const core::QuerySession* s = nodes[i]->FindSession(query_ids[i]);
      return s == nullptr ? 0 : s->total_answers();
    };
    wait_until([&]() {
      for (size_t i = 0; i < shape.issuers; ++i) {
        if (answers_of(i) < expected) return false;
      }
      return true;
    });
    tcpnet.Run([&]() {
      for (size_t i = 0; i < shape.issuers; ++i) {
        answers.push_back(answers_of(i));
      }
    });
  }
  tcpnet.Stop();
  return answers;
}

class NetLoopbackTest : public ::testing::TestWithParam<Shape> {};

TEST_P(NetLoopbackTest, TcpAnswersMatchSimulated) {
  const Shape& shape = GetParam();
  const size_t expected = (shape.nodes - shape.issuers) * kMatchesPerNode;
  std::vector<size_t> sim_answers = RunSimulated(shape);
  ASSERT_EQ(sim_answers.size(), kQueries * shape.issuers);
  for (size_t a : sim_answers) EXPECT_EQ(a, expected);

  std::vector<size_t> tcp_answers = RunOverTcp(shape, expected);
  EXPECT_EQ(tcp_answers, sim_answers);
}

INSTANTIATE_TEST_SUITE_P(
    Fleets, NetLoopbackTest,
    ::testing::Values(Shape{4, 7}, Shape{4, 11}, Shape{8, 7}, Shape{8, 11},
                      Shape{16, 7}, Shape{16, 11}, Shape{16, 7, 2},
                      Shape{16, 7, 1, {.use_index_search = true}},
                      Shape{16, 11, 1, {.enable_result_cache = true}}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      std::string name = "n" + std::to_string(info.param.nodes) + "_seed" +
                         std::to_string(info.param.seed);
      if (info.param.issuers > 1) {
        name += "_issuers" + std::to_string(info.param.issuers);
      }
      if (info.param.config.use_index_search) name += "_index";
      if (info.param.config.enable_result_cache) name += "_cache";
      return name;
    });

}  // namespace
}  // namespace bestpeer
