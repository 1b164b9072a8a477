#include "workload/churn.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/node.h"
#include "core/search_agent.h"
#include "liglo/liglo_server.h"
#include "util/rng.h"
#include "workload/corpus.h"

namespace bestpeer::workload {

double ChurnResult::MeanRecall() const {
  if (rounds.empty()) return 1.0;
  double sum = 0;
  for (const auto& r : rounds) sum += r.Recall();
  return sum / static_cast<double>(rounds.size());
}

double ChurnResult::MinRecall() const {
  double min = 1.0;
  for (const auto& r : rounds) min = std::min(min, r.Recall());
  return min;
}

Result<ChurnResult> RunChurnExperiment(const ChurnOptions& options) {
  if (options.node_count < 2) {
    return Status::InvalidArgument("need at least a base and one peer");
  }
  Rng rng(options.seed);
  World world(options.obs, options.fault, options.seed);
  sim::Simulator& simulator = world.simulator();
  sim::SimNetwork& network = world.network();
  core::SharedInfra& infra = world.infra();

  // LIGLO server on its own machine.
  net::Transport* server_transport = world.fleet().AddNode();
  NodeId server_id = server_transport->local();
  net::Dispatcher server_dispatcher(server_transport);
  liglo::LigloServerOptions server_options;
  server_options.initial_peer_count = options.starter_peers;
  server_options.sweep_interval = Millis(100);
  server_options.ping_timeout = Millis(20);
  server_options.sample_seed = options.seed ^ 0x5EED;
  liglo::LigloServer liglo_server(server_transport, &server_dispatcher,
                                  &infra.ip_directory, server_options);

  core::BestPeerConfig config;
  config.max_direct_peers = options.starter_peers + 2;
  config.strategy = options.reconfigure ? "maxcount" : "none";
  config.default_ttl = static_cast<uint16_t>(options.ttl);
  options.fault.ApplyTo(&config);
  config.metrics = &world.registry();

  CorpusGenerator corpus({512, 300, 0.8}, options.seed);
  std::vector<std::unique_ptr<core::BestPeerNode>> nodes;
  std::vector<bool> online(options.node_count, true);
  for (size_t i = 0; i < options.node_count; ++i) {
    BP_ASSIGN_OR_RETURN(auto node, core::BestPeerNode::Create(
                                       world.fleet().AddNode(), &infra,
                                       config));
    BP_RETURN_IF_ERROR(node->InitStorage({}));
    // The base holds no matches: recall counts only what the overlay
    // reaches.
    BP_RETURN_IF_ERROR(ShareCorpus(*node, i, options.objects_per_node,
                                   i == 0 ? 0 : options.matches_per_node,
                                   corpus));
    infra.code_cache.Load(node->node(), core::kSearchAgentClass);
    nodes.push_back(std::move(node));
  }
  // Everyone joins through the LIGLO server (builds the overlay).
  for (auto& node : nodes) {
    liglo::IpAddress ip = infra.ip_directory.AssignFresh(node->node());
    node->JoinNetwork(server_id, ip, nullptr);
    simulator.RunUntilIdle();
  }

  core::BestPeerNode& base = *nodes[0];
  ChurnResult result;
  for (size_t round = 0; round < options.rounds; ++round) {
    // --- churn step (skipped before the first round) -------------------
    if (round > 0) {
      // Departures: silent — no LIGLO notice, no peer notice.
      std::vector<size_t> online_now;
      for (size_t i = 1; i < options.node_count; ++i) {
        if (online[i]) online_now.push_back(i);
      }
      rng.Shuffle(online_now);
      size_t leave = static_cast<size_t>(
          static_cast<double>(online_now.size()) * options.leave_fraction);
      std::vector<bool> left_this_round(options.node_count, false);
      for (size_t k = 0; k < leave; ++k) {
        size_t victim = online_now[k];
        online[victim] = false;
        left_this_round[victim] = true;
        network.SetOnline(nodes[victim]->node(), false);
      }
      // Returns: new address + the §2 rejoin protocol. Nodes that just
      // departed are NOT candidates — a same-round rejoin would undo the
      // departure and overstate recall under heavy churn.
      std::vector<size_t> offline_now;
      for (size_t i = 1; i < options.node_count; ++i) {
        if (!online[i] && !left_this_round[i]) offline_now.push_back(i);
      }
      rng.Shuffle(offline_now);
      size_t rejoin = static_cast<size_t>(
          static_cast<double>(offline_now.size()) *
          options.rejoin_fraction);
      // The LIGLO validity sweep notices silent departures, so the
      // rejoiners below get live peers from DiscoverPeers.
      liglo_server.StartSweep();
      world.Arm();
      simulator.RunUntil(simulator.now() + Millis(300));
      liglo_server.StopSweep();
      simulator.RunUntilIdle();

      for (size_t k = 0; k < rejoin; ++k) {
        size_t comer = offline_now[k];
        online[comer] = true;
        network.SetOnline(nodes[comer]->node(), true);
        liglo::IpAddress ip =
            infra.ip_directory.AssignFresh(nodes[comer]->node());
        nodes[comer]->RejoinNetwork(ip, nullptr);
        world.Arm();
        simulator.RunUntilIdle();
      }
    }

    // --- query round ----------------------------------------------------
    ChurnRound metrics;
    for (size_t i = 1; i < options.node_count; ++i) {
      if (online[i]) {
        ++metrics.online_nodes;
        metrics.available_answers += options.matches_per_node;
      }
    }
    BP_ASSIGN_OR_RETURN(uint64_t query_id,
                        base.IssueSearch(CorpusGenerator::kNeedle));
    world.Arm();
    simulator.RunUntilIdle();
    const core::QuerySession* session = base.FindSession(query_id);
    if (session == nullptr) return Status::Internal("session lost");
    metrics.received_answers = session->total_answers();
    metrics.completion = session->completion_time();
    world.RecordQuery(base.node(), query_id, session->start_time(),
                      session->completion_time());
    if (options.recall_anomaly_threshold > 0 &&
        metrics.Recall() < options.recall_anomaly_threshold) {
      if (obs::FlightRecorder* flight = simulator.flight()) {
        flight->TripAnomaly(
            simulator.now(),
            "recall " + std::to_string(metrics.Recall()) + " below " +
                std::to_string(options.recall_anomaly_threshold) +
                " round=" + std::to_string(round));
      }
    }
    result.rounds.push_back(metrics);

    if (options.reconfigure) {
      BP_RETURN_IF_ERROR(base.Reconfigure(query_id));
      world.Arm();
      simulator.RunUntilIdle();
    }
  }
  world.Finish(&result);
  return result;
}

}  // namespace bestpeer::workload
