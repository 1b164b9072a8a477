// Result-cache & hot-answer replication benchmark: a Zipf-repeat keyword
// workload (pooled "needle<rank>" queries, skewed repetition) on a tree
// overlay, run in three sim arms at the same seed — cache off, cache on,
// cache + replication — reporting the responder-side hit rate, total wire
// bytes and bytes saved vs the cache-off arm. A fourth arm repeats the
// cache-on workload over real loopback TCP sockets; it is print-only
// (host-dependent timing) and skipped in fast mode unless BP_CACHE_TCP=1.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <chrono>
#include <thread>

#include "bench/bench_common.h"
#include "cache/result_cache.h"
#include "core/node.h"
#include "core/search_agent.h"
#include "net/tcp_transport.h"
#include "util/rng.h"

using namespace bestpeer;
using namespace bestpeer::bench;

namespace {

workload::ExperimentOptions CacheWorkload() {
  const BenchScale scale = Scale();
  workload::ExperimentOptions o;
  o.topology = workload::MakeTree(13, 3);
  o.scheme = workload::Scheme::kBps;
  o.objects_per_node = scale.objects_per_node;
  o.object_size = 1024;
  // Hot answers live at 4 far leaves only — the placement where pushing
  // replicas toward the base can actually shorten the answer path.
  o.matches_per_node_vec = workload::FarHotPlacement(o.topology, 4, 4);
  o.queries = FastMode() ? 16 : 32;
  o.answer_mode = core::AnswerMode::kDirect;
  o.ttl = 64;
  o.seed = 1;
  // The cacheable workload: 6 pooled keywords, Zipf-skewed repetition.
  o.query_pool = 6;
  o.query_zipf_skew = 1.2;
  return o;
}

struct ArmOutcome {
  double hit_rate_pct = 0;
  double remote_hits = 0;  // Not-modified replies materialized at the base.
  double wire_kb = 0;
  double saved_pct = 0;
  double first_ms = 0;  // Mean time-to-first-answer (replication's win).
  double mean_ms = 0;
  double unique_answers = 0;
  uint64_t wire_bytes = 0;
};

ArmOutcome Summarize(const workload::ExperimentResult& result,
                     uint64_t baseline_wire) {
  ArmOutcome out;
  const double hits = result.metrics.Value("cache.hits");
  const double misses = result.metrics.Value("cache.misses");
  const double probes = hits + misses;
  out.hit_rate_pct = probes == 0 ? 0 : 100.0 * hits / probes;
  out.remote_hits = result.metrics.Value("core.cache_remote_hits");
  out.wire_bytes = result.wire_bytes;
  out.wire_kb = static_cast<double>(result.wire_bytes) / 1024.0;
  if (baseline_wire > 0) {
    out.saved_pct = 100.0 *
                    (static_cast<double>(baseline_wire) -
                     static_cast<double>(result.wire_bytes)) /
                    static_cast<double>(baseline_wire);
  }
  out.mean_ms = result.MeanCompletionMs();
  size_t timed = 0;
  for (const auto& q : result.queries) {
    out.unique_answers += static_cast<double>(q.unique_answers);
    if (!q.responses.empty()) {
      out.first_ms += ToMillis(q.responses.front().time);
      ++timed;
    }
  }
  if (timed > 0) out.first_ms /= static_cast<double>(timed);
  return out;
}

// ------------------------------------------------------------------- TCP arm

/// The cache-on workload over real sockets: a star of 7 nodes repeats one
/// keyword 8 times; from the second query on every responder should serve
/// from its cache and reply "not modified".
void RunTcpArm() {
  constexpr size_t kNodes = 7;
  constexpr size_t kObjects = 32;
  constexpr size_t kMatches = 2;
  constexpr size_t kQueries = 8;
  constexpr size_t kExpected = (kNodes - 1) * kMatches;

  net::TcpNet tcpnet;
  core::SharedInfra infra;
  core::BestPeerConfig config;
  config.max_direct_peers = kNodes;
  config.strategy = "none";
  config.default_ttl = 4;
  config.enable_result_cache = true;

  workload::CorpusGenerator corpus({512, 300, 0.8}, 7);
  std::vector<std::unique_ptr<core::BestPeerNode>> nodes;
  for (size_t i = 0; i < kNodes; ++i) {
    auto node =
        core::BestPeerNode::Create(tcpnet.AddNode().value(), &infra, config);
    if (!node.ok() || !node.value()->InitStorage({}).ok()) {
      std::printf("tcp arm: node setup failed\n");
      return;
    }
    for (size_t o = 0; o < kObjects; ++o) {
      bool match = i != 0 && o < kMatches;
      (*node)->ShareObject((static_cast<uint64_t>(i) << 24) | o,
                           corpus.MakeObject(match))
          .ok();
    }
    infra.code_cache.Load((*node)->node(), core::kSearchAgentClass);
    nodes.push_back(std::move(*node));
  }
  for (size_t i = 1; i < kNodes; ++i) {
    nodes[0]->AddDirectPeerLocal(nodes[i]->node());
    nodes[i]->AddDirectPeerLocal(nodes[0]->node());
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

  size_t answers = 0;
  bool timed_out = false;
  for (size_t q = 0; q < kQueries; ++q) {
    uint64_t query_id = 0;
    tcpnet.Run([&]() {
      query_id = nodes[0]
                     ->IssueSearch(workload::CorpusGenerator::kNeedle)
                     .value();
    });
    if (!wait_until([&]() {
          const core::QuerySession* s = nodes[0]->FindSession(query_id);
          return s != nullptr && s->total_answers() >= kExpected;
        })) {
      timed_out = true;
      break;
    }
    tcpnet.Run([&]() {
      const core::QuerySession* s = nodes[0]->FindSession(query_id);
      if (s != nullptr) answers += s->total_answers();
    });
  }
  tcpnet.Stop();

  uint64_t hits = 0;
  uint64_t misses = 0;
  for (const auto& node : nodes) {
    if (cache::ResultCache* rc = node->result_cache()) {
      hits += rc->hits();
      misses += rc->misses();
    }
  }
  const uint64_t probes = hits + misses;
  std::printf(
      "TCP arm (%zu nodes, %zu queries): answers=%zu remote_hits=%llu "
      "responder hit rate=%.1f%%%s\n",
      kNodes, kQueries, answers,
      static_cast<unsigned long long>(
          nodes[0]->cache_probe()->cache_remote_hits()),
      probes == 0 ? 0.0
                  : 100.0 * static_cast<double>(hits) /
                        static_cast<double>(probes),
      timed_out ? " [TIMED OUT]" : "");
}

}  // namespace

int main() {
  BenchReport report("cache_hitrate");
  PrintTitle(
      "Query-result cache & hot-answer replication — Zipf-repeat pool "
      "(6 keywords, skew 1.2) on a 13-node tree, mode-1 answers");
  const std::vector<std::string> columns = {
      "arm",     "hit %",    "notmod",  "wire KB",
      "saved %", "first ms", "mean ms", "unique"};
  report.SetColumns(columns);
  PrintRowHeader(columns);

  workload::ExperimentOptions off = CacheWorkload();
  workload::ExperimentResult off_result = report.Run(off);
  ArmOutcome off_out = Summarize(off_result, 0);

  workload::ExperimentOptions on = off;
  on.enable_result_cache = true;
  workload::ExperimentResult on_result = report.Run(on);
  ArmOutcome on_out = Summarize(on_result, off_out.wire_bytes);

  workload::ExperimentOptions repl = on;
  repl.enable_replication = true;
  repl.replica_top_k = 8;
  workload::ExperimentResult repl_result = report.Run(repl);
  ArmOutcome repl_out = Summarize(repl_result, off_out.wire_bytes);

  for (const auto& [label, out] :
       std::initializer_list<std::pair<const char*, const ArmOutcome*>>{
           {"cache-off", &off_out},
           {"cache-on", &on_out},
           {"cache+repl", &repl_out}}) {
    std::vector<double> values = {
        out->hit_rate_pct, out->remote_hits, out->wire_kb, out->saved_pct,
        out->first_ms,     out->mean_ms,     out->unique_answers};
    PrintRow(label, values);
    report.AddRow(label, values);
  }

  std::printf(
      "\nExpected: cache-on turns repeat queries into probe hits and "
      "not-modified replies (wire bytes fall vs cache-off); replication "
      "trades extra wire (pushes + duplicate answers) for a shorter path "
      "to the first answer (dedup keeps unique answers constant).\n\n");

  if (!FastMode() || std::getenv("BP_CACHE_TCP") != nullptr) {
    RunTcpArm();
  } else {
    std::printf("TCP arm skipped in fast mode (set BP_CACHE_TCP=1).\n");
  }
  return report.Close();
}
