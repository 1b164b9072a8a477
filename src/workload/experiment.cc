#include "workload/experiment.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "baseline/cs_node.h"
#include "baseline/gnutella.h"
#include "core/node.h"
#include "core/search_agent.h"

namespace bestpeer::workload {

std::string SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kScs:
      return "SCS";
    case Scheme::kMcs:
      return "MCS";
    case Scheme::kBps:
      return "BPS";
    case Scheme::kBpr:
      return "BPR";
    case Scheme::kGnutella:
      return "Gnutella";
  }
  return "?";
}

double ExperimentResult::MeanCompletionMs() const {
  if (queries.empty()) return 0;
  double sum = 0;
  for (const auto& q : queries) sum += ToMillis(q.completion);
  return sum / static_cast<double>(queries.size());
}

double ExperimentResult::CompletionMs(size_t query_index) const {
  if (query_index >= queries.size()) return 0;
  return ToMillis(queries[query_index].completion);
}

size_t ExperimentResult::TotalAnswers() const {
  size_t n = 0;
  for (const auto& q : queries) n += q.total_answers;
  return n;
}

std::vector<size_t> FarHotPlacement(const Topology& topology,
                                    size_t hot_count, size_t matches_each) {
  std::vector<size_t> matches(topology.node_count, 0);
  auto dist = topology.Distances(topology.base);
  std::vector<size_t> order(topology.node_count);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&dist](size_t a, size_t b) {
    return dist[a] > dist[b];
  });
  size_t placed = 0;
  for (size_t node : order) {
    if (node == topology.base) continue;
    matches[node] = matches_each;
    if (++placed >= hot_count) break;
  }
  return matches;
}

namespace {

storm::StormOptions StoreOptions(const ExperimentOptions& options) {
  storm::StormOptions s;
  s.buffer_frames = 128;
  s.replacement = "lru";
  // Default experiments use the scan path (the StorM agent); the index
  // is built only when a path actually reads it.
  s.build_index =
      options.use_index_search || options.enable_content_summaries;
  s.enable_query_cache = options.enable_query_cache;
  return s;
}

/// Adds one simulated machine per topology node.
std::vector<NodeId> AddNodes(World& world, const Topology& topo) {
  std::vector<NodeId> ids;
  ids.reserve(topo.node_count);
  for (size_t i = 0; i < topo.node_count; ++i) {
    ids.push_back(world.network().AddNode());
  }
  return ids;
}

// ------------------------------------------------------------------ BestPeer

Result<ExperimentResult> RunBestPeer(const ExperimentOptions& options) {
  World world(options.obs, options.fault, options.seed, options.net);
  sim::Simulator& simulator = world.simulator();
  core::SharedInfra& infra = world.infra();
  const Topology& topo = options.topology;
  const std::vector<NodeId> ids = AddNodes(world, topo);

  core::BestPeerConfig config;
  config.max_direct_peers = options.max_direct_peers;
  config.strategy =
      options.scheme == Scheme::kBpr ? options.strategy : "none";
  config.answer_mode = options.answer_mode;
  config.auto_fetch = options.auto_fetch;
  config.codec = options.codec;
  config.default_ttl = options.ttl;
  config.metrics = &world.registry();
  config.enable_result_cache = options.enable_result_cache;
  config.enable_replication = options.enable_replication;
  config.replica_top_k = options.replica_top_k;
  // RunUntilIdle between queries drains every pending timer, so a finite
  // TTL would always expire replicas before the next query could benefit;
  // workload runs therefore map the option directly (0 = no expiry).
  config.replica_ttl = options.replica_ttl;
  config.use_index_search = options.use_index_search;
  config.enable_content_summaries = options.enable_content_summaries;
  config.enable_gossip = options.enable_gossip;
  config.gossip_fanout = options.gossip_fanout;
  config.gossip_interval = options.gossip_interval;
  config.gossip_seed = options.seed;
  config.qos_replica_placement = options.qos_replica_placement;
  options.fault.ApplyTo(&config);

  std::vector<std::unique_ptr<core::BestPeerNode>> nodes;
  nodes.reserve(topo.node_count);
  CorpusGenerator corpus({options.object_size, 500, 0.8}, options.seed);
  const std::vector<std::string> tokens =
      CorpusGenerator::PoolTokens(options.query_pool);
  for (size_t i = 0; i < topo.node_count; ++i) {
    BP_ASSIGN_OR_RETURN(auto node, core::BestPeerNode::Create(
                                       world.fleet().For(ids[i]), &infra,
                                       config));
    BP_RETURN_IF_ERROR(node->InitStorage(StoreOptions(options)));
    BP_RETURN_IF_ERROR(ShareCorpus(*node, i, options.objects_per_node,
                                   options.MatchesAt(i), corpus, tokens));
    nodes.push_back(std::move(node));
  }
  for (const auto& [a, b] : topo.edges) {
    nodes[a]->AddDirectPeerLocal(ids[b]);
    nodes[b]->AddDirectPeerLocal(ids[a]);
  }
  if (options.enable_content_summaries) {
    // Store population scheduled debounced summary pushes; edges are
    // wired now, so draining here delivers every digest before query 1.
    simulator.RunUntilIdle();
  }
  if (options.prewarm_code_cache) {
    for (NodeId id : ids) {
      infra.code_cache.Load(id, core::kSearchAgentClass);
      infra.code_cache.Load(id, core::kComputeAgentClass);
    }
  }

  core::BestPeerNode& base = *nodes[topo.base];
  // Zipf-repeat mode draws keywords from a dedicated rng so enabling the
  // pool never perturbs the corpus stream (cache-off single-keyword runs
  // stay bit-identical).
  std::unique_ptr<Rng> query_rng;
  std::unique_ptr<ZipfSampler> query_zipf;
  if (options.query_pool > 0) {
    query_rng = std::make_unique<Rng>(options.seed ^ 0x51EE9ULL);
    query_zipf = std::make_unique<ZipfSampler>(options.query_pool,
                                               options.query_zipf_skew);
  }
  size_t mutation_cursor = 0;
  std::vector<size_t> mutated(topo.node_count, 0);
  ExperimentResult result;
  for (size_t q = 0; q < options.queries; ++q) {
    std::string keyword = CorpusGenerator::kNeedle;
    if (query_zipf != nullptr) {
      keyword = std::string(CorpusGenerator::kNeedle) +
                std::to_string(query_zipf->Sample(*query_rng));
    }
    BP_ASSIGN_OR_RETURN(uint64_t query_id, base.IssueSearch(keyword));
    world.Arm();
    simulator.RunUntilIdle();
    const core::QuerySession* session = base.FindSession(query_id);
    if (session == nullptr) {
      return Status::Internal("query session lost");
    }
    const bool content_fetched =
        options.answer_mode != core::AnswerMode::kIndicate ||
        options.auto_fetch;
    QueryMetrics metrics;
    metrics.completion = session->completion_time();
    metrics.total_answers = content_fetched ? session->total_answers()
                                            : session->total_indicated();
    metrics.unique_answers = session->unique_answers();
    metrics.responders = session->responder_count();
    metrics.responses = content_fetched &&
                                options.answer_mode ==
                                    core::AnswerMode::kIndicate
                            ? session->fetches()
                            : session->responses();
    for (auto& e : metrics.responses) e.time -= session->start_time();
    world.RecordQuery(ids[topo.base], query_id, session->start_time(),
                      session->completion_time());
    result.queries.push_back(std::move(metrics));

    if (options.scheme == Scheme::kBpr) {
      BP_RETURN_IF_ERROR(base.Reconfigure(query_id));
      simulator.RunUntilIdle();  // Let connect/disconnect notices land.
    }

    if (options.mutate_every > 0 && (q + 1) % options.mutate_every == 0) {
      // Mid-workload StorM mutation: unshare one still-present matching
      // object at the next non-base node in rotation. Every cached result
      // naming that responder must be invalidated by the epoch bump.
      for (size_t attempt = 0; attempt < topo.node_count; ++attempt) {
        size_t node = (mutation_cursor + attempt) % topo.node_count;
        if (node == topo.base) continue;
        if (mutated[node] >= options.MatchesAt(node)) continue;
        size_t obj = mutated[node]++;
        BP_RETURN_IF_ERROR(
            nodes[node]->UnshareObject(GlobalObjectId(node, obj)));
        mutation_cursor = node + 1;
        break;
      }
      simulator.RunUntilIdle();
    }
  }
  world.Finish(&result);
  return result;
}

// ------------------------------------------------------------------ CS

Result<ExperimentResult> RunCs(const ExperimentOptions& options) {
  World world(options.obs, options.fault, options.seed, options.net);
  const Topology& topo = options.topology;
  const std::vector<NodeId> ids = AddNodes(world, topo);

  baseline::CsConfig config;
  config.single_thread = options.scheme == Scheme::kScs;
  config.codec = options.codec;
  config.ship_content = options.answer_mode == core::AnswerMode::kDirect;
  config.use_index_search = options.use_index_search;

  std::vector<std::unique_ptr<baseline::CsNode>> nodes;
  CorpusGenerator corpus({options.object_size, 500, 0.8}, options.seed);
  const std::vector<std::string> tokens =
      CorpusGenerator::PoolTokens(options.query_pool);
  for (size_t i = 0; i < topo.node_count; ++i) {
    BP_ASSIGN_OR_RETURN(auto node, baseline::CsNode::Create(
                                       world.fleet().For(ids[i]), config));
    storm::StormOptions store = StoreOptions(options);
    store.metrics = &world.registry();
    store.metrics_label = std::to_string(ids[i]);
    BP_RETURN_IF_ERROR(node->InitStorage(store));
    BP_RETURN_IF_ERROR(ShareCorpus(*node, i, options.objects_per_node,
                                   options.MatchesAt(i), corpus, tokens));
    nodes.push_back(std::move(node));
  }
  for (const auto& [a, b] : topo.edges) {
    nodes[a]->AddNeighborLocal(ids[b]);
    nodes[b]->AddNeighborLocal(ids[a]);
  }

  baseline::CsNode& base = *nodes[topo.base];
  ExperimentResult result;
  for (size_t q = 0; q < options.queries; ++q) {
    BP_ASSIGN_OR_RETURN(uint64_t query_id,
                        base.IssueQuery(CorpusGenerator::kNeedle));
    world.Arm();
    world.simulator().RunUntilIdle();
    const baseline::CsSession* session = base.FindSession(query_id);
    if (session == nullptr) return Status::Internal("cs session lost");
    QueryMetrics metrics;
    metrics.completion = session->completion_time();
    metrics.total_answers = session->total_answers();
    metrics.responders = session->responder_count();
    metrics.responses = session->answers();
    for (auto& e : metrics.responses) e.time -= session->start_time();
    world.RecordQuery(ids[topo.base], query_id, session->start_time(),
                      session->completion_time());
    result.queries.push_back(std::move(metrics));
  }
  world.Finish(&result);
  return result;
}

// ------------------------------------------------------------------ Gnutella

Result<ExperimentResult> RunGnutella(const ExperimentOptions& options) {
  World world(options.obs, options.fault, options.seed, options.net);
  const Topology& topo = options.topology;
  const std::vector<NodeId> ids = AddNodes(world, topo);

  baseline::GnutellaConfig config;
  config.default_ttl = static_cast<uint8_t>(
      std::min<uint16_t>(options.ttl, 255));

  std::vector<std::unique_ptr<baseline::GnutellaNode>> nodes;
  CorpusGenerator corpus({options.object_size, 500, 0.8}, options.seed);
  for (size_t i = 0; i < topo.node_count; ++i) {
    BP_ASSIGN_OR_RETURN(auto node, baseline::GnutellaNode::Create(
                                       world.fleet().For(ids[i]), config));
    size_t matches = options.MatchesAt(i);
    for (size_t f = 0; f < options.files_per_node; ++f) {
      node->ShareFile(corpus.MakeFileName(f < matches, f),
                      static_cast<uint32_t>(options.object_size));
    }
    nodes.push_back(std::move(node));
  }
  for (const auto& [a, b] : topo.edges) {
    nodes[a]->AddNeighborLocal(ids[b]);
    nodes[b]->AddNeighborLocal(ids[a]);
  }

  baseline::GnutellaNode& base = *nodes[topo.base];
  ExperimentResult result;
  for (size_t q = 0; q < options.queries; ++q) {
    BP_ASSIGN_OR_RETURN(uint64_t key,
                        base.IssueQuery(CorpusGenerator::kNeedle));
    world.Arm();
    world.simulator().RunUntilIdle();
    const baseline::GnutellaSession* session = base.FindSession(key);
    if (session == nullptr) return Status::Internal("gnutella session lost");
    QueryMetrics metrics;
    metrics.completion = session->completion_time();
    metrics.total_answers = session->total_files();
    metrics.responders = session->responder_count();
    metrics.responses = session->hits();
    for (auto& e : metrics.responses) e.time -= session->start_time();
    world.RecordQuery(ids[topo.base], key, session->start_time(),
                      session->completion_time());
    result.queries.push_back(std::move(metrics));
  }
  world.Finish(&result);
  return result;
}

}  // namespace

Result<ExperimentResult> RunExperiment(const ExperimentOptions& options) {
  if (options.topology.node_count == 0) {
    return Status::InvalidArgument("empty topology");
  }
  if (!options.matches_per_node_vec.empty() &&
      options.matches_per_node_vec.size() != options.topology.node_count) {
    return Status::InvalidArgument("placement size != node count");
  }
  const size_t pool_bytes = CorpusGenerator::PoolBytes(options.query_pool);
  if (pool_bytes > options.object_size) {
    return Status::InvalidArgument(
        "query_pool " + std::to_string(options.query_pool) +
        " needs object_size >= " + std::to_string(pool_bytes) + ", got " +
        std::to_string(options.object_size));
  }
  switch (options.scheme) {
    case Scheme::kScs:
    case Scheme::kMcs:
      return RunCs(options);
    case Scheme::kBps:
    case Scheme::kBpr:
      return RunBestPeer(options);
    case Scheme::kGnutella:
      return RunGnutella(options);
  }
  return Status::InvalidArgument("unknown scheme");
}

Result<ExperimentResult> RunAveraged(ExperimentOptions options,
                                     const std::vector<uint64_t>& seeds) {
  if (seeds.empty()) return Status::InvalidArgument("no seeds");
  ExperimentResult merged;
  for (uint64_t seed : seeds) {
    options.seed = seed;
    BP_ASSIGN_OR_RETURN(ExperimentResult one, RunExperiment(options));
    if (merged.queries.empty()) {
      merged.queries.resize(one.queries.size());
    }
    merged.wire_bytes += one.wire_bytes;
    merged.metrics.Merge(one.metrics);
    if (merged.trace == nullptr) merged.trace = one.trace;
    if (merged.flight == nullptr) merged.flight = one.flight;
    if (merged.timeseries.empty()) merged.timeseries = std::move(one.timeseries);
    for (size_t q = 0; q < one.queries.size(); ++q) {
      merged.queries[q].completion += one.queries[q].completion;
      merged.queries[q].total_answers += one.queries[q].total_answers;
      merged.queries[q].unique_answers += one.queries[q].unique_answers;
      merged.queries[q].responders += one.queries[q].responders;
      // Response curves: keep the first seed's curve as representative.
      if (merged.queries[q].responses.empty()) {
        merged.queries[q].responses = one.queries[q].responses;
      }
    }
  }
  merged.wire_bytes /= seeds.size();
  for (auto& q : merged.queries) {
    q.completion /= static_cast<SimTime>(seeds.size());
    q.total_answers /= seeds.size();
    q.unique_answers /= seeds.size();
    q.responders /= seeds.size();
  }
  return merged;
}

}  // namespace bestpeer::workload
