// bestpeerd: the BestPeer loopback runtime. Boots a LIGLO server plus N
// BestPeer nodes on 127.0.0.1, each with its own TCP listener on the
// shared reactor (net::TcpNet), joins everyone through LIGLO, runs a
// keyword-search workload and reports recall, latency and net.* counters.
//
//   bestpeerd --nodes=8 --objects=32 --matches=2 --queries=4
//
// This is the same protocol stack the simulator drives — only the
// transport differs — so recall here should match an equivalent
// simulated configuration exactly.
//
// The live telemetry plane is opt-in via BP_TELEMETRY_ADDR=host:port:
// an HTTP/1.0 server on the shared reactor serves /metrics (Prometheus),
// /healthz, /peers, /cache, /gossip, /flight?n=K, /fleet, /traces and
// /trace?flow=K; every node pushes a compact stat frame to the LIGLO
// node (the collector) every BP_TELEMETRY_PUSH_MS milliseconds. --serve
// keeps the workload running until SIGINT/SIGTERM, which drains cleanly:
// final metrics printed, flight ring dumped to BP_FLIGHT_DUMP (when
// set), exit 0.
//
// Distributed tracing is opt-in via BP_TRACE_SAMPLE=rate (0..1): the
// process owns one trace::TraceRecorder (ring bounded by BP_TRACE_RING
// spans), the transport stamps sampled flows into the BPF1 frame flags,
// and the push timer drains new spans into the collector — locally on
// the driver, as kTraceFrameMsgType pushes to global node 0 from
// followers. tools/bpstitch scrapes /traces from every process and
// stitches one Perfetto trace per flow (DESIGN.md §12).
//
// A fleet can span processes: --port-base=P pins node k's listener to
// port P+k so any process can dial any node, --node-base=K starts this
// process's node ids at K, and --fleet-size=F tells everyone how many
// global nodes exist (node 0 = LIGLO + collector, 1..F-1 = BestPeer
// nodes) so join-time IP resolution works without coordination.
// --node-base=0 (the default) makes this process the driver: it hosts
// LIGLO, the collectors and the query workload. --node-base>0 makes it
// a follower: it hosts --nodes BestPeer nodes that join the driver's
// LIGLO and serve agents until a signal arrives.
//
//   bestpeerd --nodes=4 --port-base=24100 --fleet-size=9 --serve &
//   bestpeerd --nodes=4 --node-base=5 --port-base=24100 --fleet-size=9

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/node.h"
#include "core/search_agent.h"
#include "liglo/liglo_server.h"
#include "net/dispatcher.h"
#include "net/tcp_transport.h"
#include "obs/flight_recorder.h"
#include "obs/stat_frame.h"
#include "obs/telemetry_server.h"
#include "obs/trace_frame.h"
#include "util/json_writer.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "workload/corpus.h"

namespace {

using namespace bestpeer;  // NOLINT: small tool binary.

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int) { g_signal = 1; }

struct Flags {
  size_t nodes = 8;
  size_t objects = 32;
  size_t matches = 2;
  size_t queries = 4;
  uint64_t seed = 1;
  int64_t timeout_ms = 10000;
  bool serve = false;   ///< Keep issuing queries until SIGINT/SIGTERM.
  bool cache = false;   ///< Enable the result cache + hot replication.
  bool gossip = false;  ///< Enable the gossip anti-entropy plane.
  // Multi-process fleet plan (all three set together, or none).
  uint32_t node_base = 0;   ///< First global node id in this process.
  uint16_t port_base = 0;   ///< Node k listens on port_base + k.
  uint32_t fleet_size = 0;  ///< Global node count incl. the LIGLO node.
};

bool ParseFlag(const char* arg, const char* name, long* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = std::atol(arg + len + 1);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--nodes=N>=2] [--objects=N] [--matches=N] "
               "[--queries=N] [--seed=N] [--timeout-ms=N] [--serve] "
               "[--cache] [--gossip]\n"
               "       [--node-base=K --port-base=P --fleet-size=F]  "
               "multi-process fleet (K=0: driver, K>0: follower)\n"
               "env: BP_TELEMETRY_ADDR=host:port  enable the telemetry "
               "plane\n"
               "     BP_GOSSIP_INTERVAL_MS=N      gossip round period "
               "(default 25)\n"
               "     BP_GOSSIP_FANOUT=N           peers pushed per round "
               "(default 2)\n"
               "     BP_GOSSIP_HOT_ROUNDS=N       rounds an item stays hot "
               "(default 3)\n"
               "     BP_TELEMETRY_PUSH_MS=N       stat-frame push period "
               "(default 1000)\n"
               "     BP_FLIGHT_DUMP=path          write the flight ring as "
               "NDJSON on exit\n"
               "     BP_TRACE_SAMPLE=R            record spans for fraction "
               "R of flows (0..1)\n"
               "     BP_TRACE_RING=N              span ring capacity "
               "(default 1048576)\n",
               argv0);
  return 2;
}

/// JSON for the /peers endpoint: every node's peer health and replica
/// state. Call on the transport's execution thread (it reads protocol
/// state).
std::string PeersJson(
    const std::vector<std::unique_ptr<core::BestPeerNode>>& nodes) {
  std::string out = "{\n";
  bool first_node = true;
  for (const auto& node : nodes) {
    const cache::ReplicaManager* replicas =
        node->replicas().replica_manager();
    if (!first_node) out += ",\n";
    first_node = false;
    out += "  \"" + JsonNumber(node->node()) + "\": {\"bpid\": " +
           JsonQuoted(node->bpid().ToString()) +
           ", \"capacity\": " + JsonNumber(node->peers().capacity()) +
           ", \"sessions_inflight\": " +
           JsonNumber(node->sessions().inflight()) +
           ", \"peer_evictions\": " + JsonNumber(node->peer_evictions()) +
           ", \"reconfigurations\": " +
           JsonNumber(node->reconfigurations()) +
           ", \"replica_leases\": " +
           JsonNumber(replicas != nullptr ? replicas->replica_count() : 0) +
           ", \"replica_promotions\": " +
           JsonNumber(replicas != nullptr ? replicas->promotions() : 0) +
           ", \"replica_pushes\": " +
           JsonNumber(node->replicas().replica_pushes()) +
           ", \"replicas_stored\": " +
           JsonNumber(node->replicas().replicas_stored()) +
           ",\n    \"peers\": [";
    bool first_peer = true;
    for (const core::PeerInfo& p : node->peers().Snapshot()) {
      out += first_peer ? "\n" : ",\n";
      first_peer = false;
      out += "      {\"node\": " + JsonNumber(p.node) +
             ", \"bpid\": " + JsonQuoted(p.bpid.ToString()) +
             ", \"total_answers\": " + JsonNumber(p.total_answers) +
             ", \"last_answers\": " + JsonNumber(p.last_answers) +
             ", \"last_hops\": " + JsonNumber(p.last_hops) +
             ", \"consecutive_failures\": " +
             JsonNumber(p.consecutive_failures) +
             ", \"store_size_hint\": " +
             JsonNumber(node->shipping().StoreSizeHint(p.node)) + "}";
    }
    out += first_peer ? "]}" : "\n    ]}";
  }
  out += "\n}\n";
  return out;
}

/// JSON for the /cache endpoint: every node's result-cache occupancy and
/// hit rate (nodes without a cache report enabled=false).
std::string CacheJson(
    const std::vector<std::unique_ptr<core::BestPeerNode>>& nodes) {
  std::string out = "{\n";
  bool first = true;
  for (const auto& node : nodes) {
    if (!first) out += ",\n";
    first = false;
    out += "  \"" + JsonNumber(node->node()) + "\": ";
    cache::ResultCache* cache = node->result_cache();
    if (cache == nullptr) {
      out += "{\"enabled\": false}";
      continue;
    }
    const uint64_t probes = cache->hits() + cache->misses();
    out += "{\"enabled\": true, \"hits\": " + JsonNumber(cache->hits()) +
           ", \"misses\": " + JsonNumber(cache->misses()) +
           ", \"hit_rate\": " +
           JsonNumber(probes == 0 ? 0.0
                                       : static_cast<double>(cache->hits()) /
                                             static_cast<double>(probes)) +
           ", \"insertions\": " + JsonNumber(cache->insertions()) +
           ", \"evictions\": " + JsonNumber(cache->evictions()) +
           ", \"invalidations\": " + JsonNumber(cache->invalidations()) +
           ", \"admission_rejected\": " +
           JsonNumber(cache->admission_rejected()) +
           ", \"bytes_used\": " + JsonNumber(cache->bytes_used()) +
           ", \"entries\": " + JsonNumber(cache->entry_count()) +
           ", \"slices\": " + JsonNumber(cache->slice_count()) +
           ", \"remote_hits\": " +
           JsonNumber(node->cache_probe()->cache_remote_hits()) +
           "}";
  }
  out += "\n}\n";
  return out;
}

/// JSON for the /gossip endpoint: every node's anti-entropy agent state —
/// round/frame/apply counters plus the epoch map it has converged on
/// (nodes without an agent report enabled=false).
std::string GossipJson(
    const std::vector<std::unique_ptr<core::BestPeerNode>>& nodes) {
  std::string out = "{\n";
  bool first = true;
  for (const auto& node : nodes) {
    if (!first) out += ",\n";
    first = false;
    out += "  \"" + JsonNumber(node->node()) + "\": ";
    const gossip::GossipAgent* agent = node->gossip_agent();
    if (agent == nullptr) {
      out += "{\"enabled\": false}";
      continue;
    }
    out += "{\"enabled\": true, \"rounds\": " +
           JsonNumber(agent->rounds()) +
           ", \"frames_sent\": " + JsonNumber(agent->frames_sent()) +
           ", \"frames_received\": " +
           JsonNumber(agent->frames_received()) +
           ", \"items_applied\": " + JsonNumber(agent->items_applied()) +
           ", \"duplicates\": " + JsonNumber(agent->duplicates()) +
           ", \"decode_errors\": " + JsonNumber(agent->decode_errors()) +
           ", \"known_items\": " + JsonNumber(agent->known_items()) +
           ", \"quiescent\": " +
           std::string(agent->quiescent() ? "true" : "false") +
           ",\n    \"epochs\": {";
    bool first_epoch = true;
    for (const auto& [origin, epoch] : agent->KnownEpochs()) {
      if (!first_epoch) out += ", ";
      first_epoch = false;
      out += "\"" + JsonNumber(origin) + "\": " + JsonNumber(epoch);
    }
    out += "}}";
  }
  out += "\n}\n";
  return out;
}

/// JSON for /flight?n=K: the newest K events of the ring, oldest first.
std::string FlightJson(const obs::FlightRecorder& flight, size_t n) {
  std::vector<obs::FlightEvent> events = flight.Events();
  const size_t start = events.size() > n ? events.size() - n : 0;
  std::string out = "{\"recorded\": " + JsonNumber(flight.recorded()) +
                    ", \"dropped\": " + JsonNumber(
                        flight.dropped_events()) +
                    ", \"returned\": " +
                    JsonNumber(events.size() - start) +
                    ", \"events\": [";
  for (size_t i = start; i < events.size(); ++i) {
    const obs::FlightEvent& e = events[i];
    out += i == start ? "\n" : ",\n";
    out += "  {\"ts\": " + JsonNumber(e.ts) + ", \"type\": " +
           JsonQuoted(obs::EventTypeName(e.type)) + ", \"cause\": " +
           JsonQuoted(obs::DropCauseName(e.cause)) +
           ", \"msg_type\": " + JsonNumber(e.msg_type) +
           ", \"node\": " + JsonNumber(e.node) +
           ", \"peer\": " + JsonNumber(e.peer) +
           ", \"flow\": " + JsonNumber(e.flow) +
           ", \"a\": " + JsonNumber(e.a) +
           ", \"b\": " + JsonNumber(e.b) + "}";
  }
  out += events.size() > start ? "\n]}\n" : "]}\n";
  return out;
}

/// One node's contribution to the fleet rollup. The registry is shared by
/// every node in this process, so per-node frames are synthesized from
/// node-level state with a {node="N"} label — exactly what a one-node-
/// per-process deployment would push from its own registry.
obs::StatFrame BuildStatFrame(core::BestPeerNode* node, int64_t now_us) {
  obs::StatFrame frame;
  frame.node = node->node();
  frame.sent_at_us = now_us;
  const metrics::LabelSet labels = {
      {"node", std::to_string(node->node())}};
  auto gauge = [&](const char* name, double value) {
    metrics::SnapshotEntry e;
    e.name = name;
    e.labels = labels;
    e.kind = metrics::InstrumentKind::kGauge;
    e.value = value;
    frame.snapshot.entries.push_back(std::move(e));
  };
  auto counter = [&](const char* name, double value) {
    metrics::SnapshotEntry e;
    e.name = name;
    e.labels = labels;
    e.kind = metrics::InstrumentKind::kCounter;
    e.value = value;
    frame.snapshot.entries.push_back(std::move(e));
  };
  gauge("bp.node.direct_peers", static_cast<double>(node->peers().size()));
  gauge("bp.node.sessions_inflight",
        static_cast<double>(node->sessions().inflight()));
  const cache::ReplicaManager* replicas = node->replicas().replica_manager();
  gauge("bp.node.replica_leases",
        replicas != nullptr ? static_cast<double>(replicas->replica_count())
                            : 0.0);
  counter("bp.node.results_received",
          static_cast<double>(node->results_received()));
  counter("bp.node.peer_evictions",
          static_cast<double>(node->peer_evictions()));
  counter("bp.node.reconfigurations",
          static_cast<double>(node->reconfigurations()));
  counter("bp.node.replica_pushes",
          static_cast<double>(node->replicas().replica_pushes()));
  counter("bp.node.replicas_stored",
          static_cast<double>(node->replicas().replicas_stored()));
  if (cache::ResultCache* cache = node->result_cache()) {
    counter("bp.node.cache_hits", static_cast<double>(cache->hits()));
    counter("bp.node.cache_misses", static_cast<double>(cache->misses()));
    gauge("bp.node.cache_bytes", static_cast<double>(cache->bytes_used()));
    gauge("bp.node.cache_entries",
          static_cast<double>(cache->entry_count()));
  }
  return frame;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    long v = 0;
    if (ParseFlag(argv[i], "--nodes", &v)) {
      flags.nodes = static_cast<size_t>(v);
    } else if (ParseFlag(argv[i], "--objects", &v)) {
      flags.objects = static_cast<size_t>(v);
    } else if (ParseFlag(argv[i], "--matches", &v)) {
      flags.matches = static_cast<size_t>(v);
    } else if (ParseFlag(argv[i], "--queries", &v)) {
      flags.queries = static_cast<size_t>(v);
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      flags.seed = static_cast<uint64_t>(v);
    } else if (ParseFlag(argv[i], "--timeout-ms", &v)) {
      flags.timeout_ms = v;
    } else if (ParseFlag(argv[i], "--node-base", &v)) {
      flags.node_base = static_cast<uint32_t>(v);
    } else if (ParseFlag(argv[i], "--port-base", &v)) {
      flags.port_base = static_cast<uint16_t>(v);
    } else if (ParseFlag(argv[i], "--fleet-size", &v)) {
      flags.fleet_size = static_cast<uint32_t>(v);
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      flags.serve = true;
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      flags.cache = true;
    } else if (std::strcmp(argv[i], "--gossip") == 0) {
      flags.gossip = true;
    } else {
      return Usage(argv[0]);
    }
  }
  // A follower hosts only BestPeer nodes; the driver also hosts the
  // LIGLO/collector node, so its local node count is flags.nodes + 1.
  const bool follower = flags.node_base > 0;
  const size_t local_nodes = flags.nodes + (follower ? 0 : 1);
  if (flags.nodes < (follower ? 1u : 2u) || flags.matches > flags.objects) {
    return Usage(argv[0]);
  }
  if (flags.node_base != 0 || flags.port_base != 0 ||
      flags.fleet_size != 0) {
    // Fleet mode: all three knobs are required and the plan must have
    // room for this process's nodes.
    if (flags.port_base == 0 || flags.fleet_size == 0 ||
        flags.fleet_size < flags.node_base + local_nodes) {
      return Usage(argv[0]);
    }
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  const char* telemetry_addr = std::getenv("BP_TELEMETRY_ADDR");
  const char* flight_dump = std::getenv("BP_FLIGHT_DUMP");
  int64_t push_ms = 1000;
  if (const char* env = std::getenv("BP_TELEMETRY_PUSH_MS")) {
    push_ms = std::atol(env);
    if (push_ms <= 0) push_ms = 1000;
  }

  // The registry is only touched from the reactor thread once traffic
  // flows; all instrument creation happens below, before Start().
  metrics::Registry registry;

  // Distributed tracing (opt-in): one recorder per process, owned here
  // and wired into the transport. Head-based sampling keyed on the flow
  // id hash means every fleet process reaches the same verdict per
  // query; the BPF1 sampled flag enforces it for mismatched rates.
  std::unique_ptr<trace::TraceRecorder> tracer;
  if (const char* env = std::getenv("BP_TRACE_SAMPLE")) {
    const double rate = std::atof(env);
    if (rate > 0) {
      trace::TraceRecorderOptions trace_options;
      trace_options.sample_rate = rate;
      trace_options.metrics = &registry;
      if (const char* ring = std::getenv("BP_TRACE_RING")) {
        const long want = std::atol(ring);
        if (want > 0) {
          trace_options.ring_capacity = static_cast<size_t>(want);
        }
      }
      tracer = std::make_unique<trace::TraceRecorder>(trace_options);
    }
  }

  // The flight recorder exists only when someone will read it (the
  // /flight endpoint or a final dump); otherwise the transport's
  // instrumentation stays a null-pointer test.
  std::unique_ptr<obs::FlightRecorder> flight;
  if (telemetry_addr != nullptr ||
      (flight_dump != nullptr && flight_dump[0] != '\0')) {
    flight = std::make_unique<obs::FlightRecorder>(
        obs::FlightRecorderOptions{.capacity = 8192, .auto_dump_path = ""});
    flight->RegisterTypeName(obs::kStatFrameMsgType, "stat_frame");
    flight->RegisterTypeName(obs::kTraceFrameMsgType, "trace_frame");
  }

  net::TcpOptions tcp_options;
  tcp_options.metrics = &registry;
  tcp_options.flight = flight.get();
  tcp_options.trace = tracer.get();
  tcp_options.node_base = flags.node_base;
  tcp_options.port_base = flags.port_base;
  net::TcpNet tcpnet(tcp_options);

  // Global node 0 is the LIGLO server + collector; it lives in the
  // driver process. Followers dial it by its fleet port.
  constexpr NodeId kLigloNode = 0;
  net::TcpTransport* server_transport = nullptr;
  if (!follower) {
    auto st = tcpnet.AddNode();
    if (!st.ok()) {
      std::fprintf(stderr, "bestpeerd: %s\n",
                   st.status().ToString().c_str());
      return 1;
    }
    server_transport = st.value();
  }
  std::vector<net::TcpTransport*> transports;
  for (size_t i = 0; i < flags.nodes; ++i) {
    auto t = tcpnet.AddNode();
    if (!t.ok()) {
      std::fprintf(stderr, "bestpeerd: %s\n", t.status().ToString().c_str());
      return 1;
    }
    transports.push_back(t.value());
  }

  core::SharedInfra infra;
  // Fleet IP plan: every process derives the same NodeId <-> IpAddress
  // mapping (10.0.0.1 + id), so a peer entry minted by any process
  // resolves in every other one without a directory exchange.
  if (flags.fleet_size != 0) {
    for (uint32_t id = 1; id < flags.fleet_size; ++id) {
      Status st = infra.ip_directory.Assign(0x0A000001u + id, id);
      if (!st.ok()) {
        std::fprintf(stderr, "bestpeerd: ip plan: %s\n",
                     st.ToString().c_str());
        return 1;
      }
    }
  }

  constexpr uint32_t kInitialPeerCount = 4;
  std::unique_ptr<net::Dispatcher> server_dispatcher;
  std::unique_ptr<liglo::LigloServer> liglo_server;
  obs::FleetCollector collector;
  obs::TraceCollector trace_collector;
  if (!follower) {
    server_dispatcher = std::make_unique<net::Dispatcher>(server_transport);
    liglo::LigloServerOptions server_options;
    server_options.initial_peer_count = kInitialPeerCount;
    server_options.sample_seed = flags.seed ^ 0x5EED;
    liglo_server = std::make_unique<liglo::LigloServer>(
        server_transport, server_dispatcher.get(), &infra.ip_directory,
        server_options);

    // The LIGLO node doubles as the fleet collector: nodes push stat and
    // trace frames to it over the same transport their protocol traffic
    // uses — from followers that means real cross-process BPF1 frames.
    server_dispatcher->Register(
        obs::kStatFrameMsgType, [&](const net::Message& msg) {
          auto frame = obs::DecodeStatFrame(msg.payload);
          if (frame.ok()) {
            collector.Absorb(std::move(frame).value(),
                             tcpnet.reactor().now_us());
          }
        });
    server_dispatcher->Register(
        obs::kTraceFrameMsgType, [&](const net::Message& msg) {
          auto frame = obs::DecodeTraceFrame(msg.payload);
          if (frame.ok()) {
            trace_collector.Absorb(std::move(frame).value(),
                                   tcpnet.reactor().now_us());
          }
        });
  }

  core::BestPeerConfig config;
  // In fleet mode leave room for every global peer: with the static
  // "none" strategy an evicted back-link is never re-learned, which
  // would strand the evictee outside the search graph.
  config.max_direct_peers =
      flags.fleet_size != 0
          ? std::max<size_t>(kInitialPeerCount + 2, flags.fleet_size - 1)
          : kInitialPeerCount + 2;
  config.strategy = "none";
  // In fleet mode the query must be able to cross every global node, not
  // just the ones in this process.
  config.default_ttl = static_cast<uint16_t>(
      flags.fleet_size != 0 ? flags.fleet_size : flags.nodes);
  config.metrics = &registry;
  if (flags.cache) {
    config.enable_result_cache = true;
    config.enable_replication = true;
  }
  if (flags.gossip) {
    config.enable_gossip = true;
    config.gossip_seed = flags.seed;
    // Live-runtime pacing: the reactor clock ticks in real microseconds,
    // so the simulator's 2ms default would spin; 25ms converges a small
    // fleet well inside one telemetry push period.
    config.gossip_interval = Millis(25);
    if (const char* env = std::getenv("BP_GOSSIP_INTERVAL_MS")) {
      const long v = std::atol(env);
      if (v > 0) config.gossip_interval = Millis(v);
    }
    if (const char* env = std::getenv("BP_GOSSIP_FANOUT")) {
      const long v = std::atol(env);
      if (v > 0) config.gossip_fanout = static_cast<size_t>(v);
    }
    if (const char* env = std::getenv("BP_GOSSIP_HOT_ROUNDS")) {
      const long v = std::atol(env);
      if (v > 0) config.gossip_hot_rounds = static_cast<uint32_t>(v);
    }
  }

  workload::CorpusGenerator corpus({512, 300, 0.8}, flags.seed);
  std::vector<std::unique_ptr<core::BestPeerNode>> nodes;
  for (size_t i = 0; i < flags.nodes; ++i) {
    auto node = core::BestPeerNode::Create(transports[i], &infra, config);
    if (!node.ok()) {
      std::fprintf(stderr, "bestpeerd: %s\n",
                   node.status().ToString().c_str());
      return 1;
    }
    Status st = node.value()->InitStorage({});
    if (!st.ok()) {
      std::fprintf(stderr, "bestpeerd: %s\n", st.ToString().c_str());
      return 1;
    }
    for (size_t o = 0; o < flags.objects; ++o) {
      // The driver's first BestPeer node issues the queries; matches live
      // on every other node in the fleet. Object ids are derived from the
      // global node id so they never collide across processes.
      bool match = !(!follower && i == 0) && o < flags.matches;
      st = node.value()->ShareObject(
          (static_cast<uint64_t>(node.value()->node()) << 24) | o,
          corpus.MakeObject(match));
      if (!st.ok()) {
        std::fprintf(stderr, "bestpeerd: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    infra.code_cache.Load(node.value()->node(), core::kSearchAgentClass);
    nodes.push_back(std::move(*node));
  }

  // Workload counters for bptop: queries/s and recall come from here.
  metrics::Counter* queries_done_c = registry.GetCounter("bestpeerd.queries");
  metrics::Counter* answers_c = registry.GetCounter("bestpeerd.answers");
  metrics::Counter* expected_c =
      registry.GetCounter("bestpeerd.answers_expected");

  if (follower) {
    std::printf(
        "bestpeerd: follower nodes %u..%u on ports %u..%u (fleet of %u)\n",
        flags.node_base,
        flags.node_base + static_cast<uint32_t>(flags.nodes) - 1,
        transports.front()->port(), transports.back()->port(),
        flags.fleet_size);
  } else {
    std::printf(
        "bestpeerd: liglo on 127.0.0.1:%u, %zu nodes on ports %u..%u\n",
        server_transport->port(), flags.nodes, transports.front()->port(),
        transports.back()->port());
  }

  tcpnet.Start();

  // --- telemetry plane (opt-in) --------------------------------------------
  std::unique_ptr<obs::TelemetryServer> telemetry;
  if (telemetry_addr != nullptr) {
    telemetry = std::make_unique<obs::TelemetryServer>(&tcpnet.reactor(),
                                                       telemetry_addr);
    telemetry->AddHandler("/healthz", [&](const obs::HttpRequest&) {
      obs::HttpResponse r;
      r.body = "ok\n";
      return r;
    });
    telemetry->AddHandler("/metrics", [&](const obs::HttpRequest&) {
      obs::HttpResponse r;
      r.content_type = "text/plain; version=0.0.4; charset=utf-8";
      r.body = registry.TakeSnapshot().ToPrometheus();
      return r;
    });
    telemetry->AddHandler("/peers", [&](const obs::HttpRequest&) {
      obs::HttpResponse r;
      r.content_type = "application/json";
      r.body = PeersJson(nodes);
      return r;
    });
    telemetry->AddHandler("/cache", [&](const obs::HttpRequest&) {
      obs::HttpResponse r;
      r.content_type = "application/json";
      r.body = CacheJson(nodes);
      return r;
    });
    telemetry->AddHandler("/gossip", [&](const obs::HttpRequest&) {
      obs::HttpResponse r;
      r.content_type = "application/json";
      r.body = GossipJson(nodes);
      return r;
    });
    telemetry->AddHandler("/fleet", [&](const obs::HttpRequest&) {
      obs::HttpResponse r;
      r.content_type = "application/json";
      r.body = collector.ToJson(tcpnet.reactor().now_us());
      return r;
    });
    telemetry->AddHandler("/flight", [&](const obs::HttpRequest& req) {
      obs::HttpResponse r;
      r.content_type = "application/json";
      size_t n = 64;
      const std::string param = obs::QueryParam(req.query, "n");
      if (!param.empty()) {
        long want = std::atol(param.c_str());
        if (want > 0) n = static_cast<size_t>(want);
      }
      r.body = FlightJson(*flight, n);
      return r;
    });
    // The trace endpoints serve this process's collector: the driver's
    // holds the whole fleet's spans, a follower's only its own — bpstitch
    // scrapes all of them and dedups by the local node-id range.
    auto export_ctx = [&tcpnet, &flags, local_nodes]() {
      obs::TraceExportContext ctx;
      ctx.now_us = tcpnet.reactor().now_us();
      ctx.wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count();
      ctx.node_base = flags.node_base;
      ctx.node_count = static_cast<uint32_t>(local_nodes);
      return ctx;
    };
    telemetry->AddHandler("/traces", [&, export_ctx](const obs::HttpRequest&) {
      obs::HttpResponse r;
      r.content_type = "application/json";
      r.body = trace_collector.ToJson(export_ctx());
      return r;
    });
    telemetry->AddHandler(
        "/trace", [&, export_ctx](const obs::HttpRequest& req) {
          obs::HttpResponse r;
          r.content_type = "application/json";
          const std::string param = obs::QueryParam(req.query, "flow");
          if (param.empty()) {
            r.status = 400;
            r.content_type = "text/plain";
            r.body = "missing ?flow=K\n";
            return r;
          }
          r.body = trace_collector.FlowJson(
              export_ctx(), std::strtoull(param.c_str(), nullptr, 10));
          return r;
        });
    Status st = telemetry->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "bestpeerd: telemetry: %s\n",
                   st.ToString().c_str());
      tcpnet.Stop();
      return 1;
    }
    std::printf("bestpeerd: telemetry on %s:%u\n",
                telemetry->host().c_str(), telemetry->port());

    // Recurring push: every node sends its stat frame to the collector
    // (global node 0), and the process drains freshly recorded trace
    // spans — into the local collector always, and as trace frames to the
    // driver when this process is a follower.
    const int64_t push_us = push_ms * 1000;
    auto push = std::make_shared<std::function<void()>>();
    auto trace_cursor = std::make_shared<uint64_t>(0);
    *push = [&, push_us, push, trace_cursor]() {
      const int64_t now = tcpnet.reactor().now_us();
      for (size_t i = 0; i < nodes.size(); ++i) {
        obs::StatFrame frame = BuildStatFrame(nodes[i].get(), now);
        transports[i]->Send(kLigloNode, obs::kStatFrameMsgType,
                            obs::EncodeStatFrame(frame));
      }
      if (tracer != nullptr) {
        uint64_t next = *trace_cursor;
        std::vector<trace::Span> fresh =
            tracer->SpansSince(*trace_cursor, &next);
        *trace_cursor = next;
        for (size_t off = 0; off < fresh.size();
             off += obs::kTraceFrameMaxSpans) {
          const size_t end =
              std::min(fresh.size(), off + obs::kTraceFrameMaxSpans);
          obs::TraceFrame frame;
          frame.node = flags.node_base;
          frame.sent_at_us = now;
          frame.spans_dropped = tracer->spans_dropped();
          frame.spans.assign(fresh.begin() + off, fresh.begin() + end);
          if (follower) {
            transports[0]->Send(kLigloNode, obs::kTraceFrameMsgType,
                                obs::EncodeTraceFrame(frame));
          }
          trace_collector.Absorb(std::move(frame), now);
        }
      }
      tcpnet.reactor().AddTimerAt(now + push_us, [push]() { (*push)(); });
    };
    tcpnet.Run([&]() { (*push)(); });
  }

  auto wait_until = [&](const std::function<bool()>& done_on_reactor,
                        int64_t budget_ms) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(budget_ms);
    for (;;) {
      bool done = false;
      tcpnet.Run([&]() { done = done_on_reactor(); });
      if (done) return true;
      if (g_signal != 0) return false;
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  // Sequential joins, like a real deployment: each node registers with
  // LIGLO (global node 0, possibly in another process) and adopts a
  // sample of the members already present. In fleet mode the node's IP
  // comes from the shared plan; standalone keeps minting fresh ones.
  for (auto& node : nodes) {
    bool joined = false;
    tcpnet.Run([&]() {
      liglo::IpAddress ip =
          flags.fleet_size != 0
              ? infra.ip_directory.AddressOf(node->node())
              : infra.ip_directory.AssignFresh(node->node());
      node->JoinNetwork(kLigloNode, ip, [&joined](auto outcome) {
        (void)outcome;
        joined = true;
      });
    });
    if (!wait_until([&]() { return joined; }, flags.timeout_ms)) {
      if (g_signal != 0) break;
      std::fprintf(stderr, "bestpeerd: node %u join timed out\n",
                   node->node());
      tcpnet.Stop();
      return 1;
    }
  }
  if (g_signal == 0) std::printf("bestpeerd: %zu nodes joined\n", flags.nodes);

  // A follower's job ends here: its nodes serve agent traffic (and push
  // stat/trace frames) until a signal arrives.
  if (follower) {
    while (g_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  // The fleet driver waits for every remote node to register before
  // issuing queries, so recall is measured against the whole fleet.
  if (!follower && flags.fleet_size != 0 && g_signal == 0) {
    const size_t want = flags.fleet_size - 1;
    if (!wait_until(
            [&]() { return liglo_server->registrations() >= want; },
            flags.timeout_ms)) {
      if (g_signal == 0) {
        std::fprintf(stderr, "bestpeerd: fleet join timed out\n");
        tcpnet.Stop();
        return 1;
      }
    } else {
      std::printf("bestpeerd: fleet of %zu nodes registered\n", want);
      // Registration precedes peer adoption by a round trip; give the
      // last joiner's back-links a moment before measuring recall.
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
  }

  // Every BestPeer node except the issuer holds `matches` matching
  // objects; in fleet mode that spans all processes.
  const size_t expected =
      (flags.fleet_size != 0 ? flags.fleet_size - 2 : flags.nodes - 1) *
      flags.matches;
  size_t received_total = 0;
  size_t queries_run = 0;
  double latency_sum_ms = 0, latency_max_ms = 0;
  bool all_complete = true;
  // Fixed budget of queries; --serve keeps going until a signal arrives.
  for (size_t q = 0; (q < flags.queries || flags.serve) && g_signal == 0;
       ++q) {
    uint64_t query_id = 0;
    bool issued = false;
    tcpnet.Run([&]() {
      auto r = nodes[0]->IssueSearch(workload::CorpusGenerator::kNeedle);
      if (r.ok()) {
        query_id = r.value();
        issued = true;
      }
    });
    if (!issued) {
      std::fprintf(stderr, "bestpeerd: IssueSearch failed\n");
      tcpnet.Stop();
      return 1;
    }
    bool complete = wait_until(
        [&]() {
          const core::QuerySession* s = nodes[0]->FindSession(query_id);
          return s != nullptr && s->total_answers() >= expected;
        },
        flags.timeout_ms);
    // A query the drain signal cut short stays uncounted: its partial
    // answers would read as lost recall.
    if (!complete && g_signal != 0) break;
    size_t answers = 0;
    double latency_ms = 0;
    tcpnet.Run([&]() {
      const core::QuerySession* s = nodes[0]->FindSession(query_id);
      if (s != nullptr) {
        answers = s->total_answers();
        latency_ms =
            ToMillis(s->completion_time() > 0
                         ? s->completion_time()
                         : tcpnet.clock().now() - s->start_time());
        // Root span for the distributed trace: the same name/cat/flow
        // convention the simulator's experiment driver uses, so the
        // critical-path explain and bpstitch find their anchor.
        if (tracer != nullptr && tracer->Sampled(query_id)) {
          trace::Span span;
          span.name = "query";
          span.cat = "query";
          span.tid = nodes[0]->node();
          span.ts = s->start_time();
          span.dur = s->completion_time() > 0
                         ? s->completion_time()
                         : tcpnet.clock().now() - s->start_time();
          span.flow = query_id;
          tracer->RecordSpan(std::move(span));
        }
      }
      queries_done_c->Increment();
      answers_c->Add(answers);
      expected_c->Add(expected);
    });
    received_total += answers;
    ++queries_run;
    latency_sum_ms += latency_ms;
    if (latency_ms > latency_max_ms) latency_max_ms = latency_ms;
    if (g_signal == 0) {
      all_complete = all_complete && complete;
      if (!flags.serve || !complete) {
        std::printf("query %zu: answers=%zu/%zu latency=%.2fms%s\n", q,
                    answers, expected, latency_ms,
                    complete ? "" : " (timeout)");
      }
    }
    if (flags.serve && q + 1 >= flags.queries) {
      // Steady-state pacing so a served fleet isn't a busy loop.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  const bool interrupted = g_signal != 0;
  if (interrupted) {
    std::printf("bestpeerd: signal received, draining\n");
  }

  // Drain order: stop accepting telemetry requests while the reactor is
  // still alive, then tear the fabric down.
  if (telemetry != nullptr) telemetry->Stop();
  tcpnet.Stop();

  double recall = expected == 0 || queries_run == 0
                      ? 1.0
                      : static_cast<double>(received_total) /
                            static_cast<double>(expected * queries_run);
  std::printf("recall=%.4f mean_latency=%.2fms max_latency=%.2fms\n", recall,
              queries_run > 0
                  ? latency_sum_ms / static_cast<double>(queries_run)
                  : 0.0,
              latency_max_ms);

  metrics::Snapshot snap = registry.TakeSnapshot();
  std::printf(
      "net: tx_msgs=%.0f tx_bytes=%.0f rx_msgs=%.0f rx_bytes=%.0f "
      "connects=%.0f reconnects=%.0f tx_dropped=%.0f rx_dropped=%.0f "
      "frame_errors=%.0f\n",
      snap.Value("net.tx_msgs"), snap.Value("net.tx_bytes"),
      snap.Value("net.rx_msgs"), snap.Value("net.rx_bytes"),
      snap.Value("net.connects"), snap.Value("net.reconnects"),
      snap.Value("net.tx_dropped"), snap.Value("net.rx_dropped"),
      snap.Value("net.frame_errors"));
  if (telemetry_addr != nullptr) {
    std::printf("telemetry: requests=%llu rejected=%llu fleet_nodes=%zu "
                "fleet_frames=%llu\n",
                static_cast<unsigned long long>(
                    telemetry->requests_served()),
                static_cast<unsigned long long>(
                    telemetry->connections_rejected()),
                collector.node_count(),
                static_cast<unsigned long long>(collector.frames_received()));
  }
  if (tracer != nullptr) {
    std::printf("trace: spans=%llu dropped=%llu flows_sampled=%llu "
                "collected_flows=%zu collected_spans=%zu\n",
                static_cast<unsigned long long>(tracer->recorded()),
                static_cast<unsigned long long>(tracer->spans_dropped()),
                static_cast<unsigned long long>(tracer->flows_sampled()),
                trace_collector.flow_count(), trace_collector.span_count());
  }
  if (flight != nullptr && flight_dump != nullptr &&
      flight_dump[0] != '\0') {
    Status st = flight->WriteNdjson(flight_dump);
    if (st.ok()) {
      std::printf("flight: %llu events -> %s\n",
                  static_cast<unsigned long long>(flight->recorded()),
                  flight_dump);
    } else {
      std::fprintf(stderr, "bestpeerd: flight dump: %s\n",
                   st.ToString().c_str());
    }
  }

  // A signal-driven exit is a clean drain, not a failure.
  if (interrupted) return 0;
  return all_complete && recall >= 1.0 ? 0 : 1;
}
