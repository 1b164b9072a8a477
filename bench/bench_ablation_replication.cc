// Replica-placement ablation: the same mutation-heavy Zipf-repeat
// workload (pooled keywords, skewed repetition, a StorM mutation every
// other query, probabilistic message loss) run in three arms at the same
// seeds —
//   freq-broadcast: every promotion broadcast to all direct peers,
//                   epochs probe-discovered;
//   qos-placement:  promotions go to the two best peers by the QoS
//                   score (RTT / failures / bandwidth);
//   qos+gossip:     QoS placement plus the gossip anti-entropy plane, so
//                   epoch bumps invalidate cached slices *before* the
//                   next probe (no stale-probe round trips).
// Replication must pay for itself here: the QoS arms should push fewer
// replicas and spend fewer total wire bytes than the broadcast arm at
// identical recall, and gossip should drive stale probes toward zero.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"

using namespace bestpeer;
using namespace bestpeer::bench;

namespace {

workload::ExperimentOptions PlacementWorkload() {
  const BenchScale scale = Scale();
  workload::ExperimentOptions o;
  o.topology = workload::MakeTree(13, 3);
  o.scheme = workload::Scheme::kBps;
  o.objects_per_node = scale.objects_per_node;
  o.object_size = 1024;
  // Hot answers at 4 far leaves: the placement where replica pushes can
  // shorten the answer path — and where pushing to *every* neighbor
  // visibly overspends wire.
  o.matches_per_node_vec = workload::FarHotPlacement(o.topology, 4, 4);
  o.queries = FastMode() ? 16 : 32;
  o.answer_mode = core::AnswerMode::kDirect;
  o.ttl = 64;
  o.seed = 1;
  // Zipf-repeat pool: the skewed repetition gives the cache something to
  // hit and the promotion sketch something to promote.
  o.query_pool = 6;
  o.query_zipf_skew = 1.2;
  // Mutation-heavy: a StorM unshare every other query keeps epochs
  // moving, so probe-discovered invalidation pays a round trip each time.
  o.mutate_every = 2;
  // Faults on: the lossy wire every arm must survive.
  o.fault.message_loss = 0.02;
  // All arms run cache + replication; the arms differ only in placement
  // and epoch dissemination.
  o.enable_result_cache = true;
  o.enable_replication = true;
  o.replica_top_k = 8;
  return o;
}

struct ArmOutcome {
  double wire_kb = 0;
  double saved_pct = 0;
  double pushes = 0;
  double stale_probes = 0;
  double remote_hits = 0;
  double gossip_invalidations = 0;
  double unique_answers = 0;
  uint64_t wire_bytes = 0;
};

ArmOutcome Summarize(const workload::ExperimentResult& result,
                     uint64_t baseline_wire) {
  ArmOutcome out;
  out.wire_bytes = result.wire_bytes;
  out.wire_kb = static_cast<double>(result.wire_bytes) / 1024.0;
  if (baseline_wire > 0) {
    out.saved_pct = 100.0 *
                    (static_cast<double>(baseline_wire) -
                     static_cast<double>(result.wire_bytes)) /
                    static_cast<double>(baseline_wire);
  }
  out.pushes = result.metrics.Value("core.replica_pushes");
  out.stale_probes = result.metrics.Value("core.cache_stale_probes");
  out.remote_hits = result.metrics.Value("core.cache_remote_hits");
  out.gossip_invalidations =
      result.metrics.Value("core.gossip_invalidations");
  for (const auto& q : result.queries) {
    out.unique_answers += static_cast<double>(q.unique_answers);
  }
  if (std::getenv("BP_BENCH_DEBUG") != nullptr) {
    for (const char* name :
         {"gossip.frames_sent", "gossip.items_sent", "net.messages_sent",
          "cache.hits", "cache.misses", "cache.invalidations",
          "cache.insertions", "core.answers_received", "agent.migrations",
          "core.queries_issued", "fault.drops"}) {
      std::printf("  %-24s %.0f\n", name, result.metrics.Value(name));
    }
  }
  return out;
}

}  // namespace

int main() {
  BenchReport report("ablation_replication");
  PrintTitle(
      "Replica placement ablation — mutation-heavy Zipf pool on a "
      "13-node tree, 2% message loss: broadcast vs QoS placement vs "
      "QoS + gossiped epochs");
  const std::vector<std::string> columns = {
      "arm",   "wire KB", "saved %", "pushes",
      "stale", "notmod",  "ginval",  "unique"};
  report.SetColumns(columns);
  PrintRowHeader(columns);

  workload::ExperimentOptions freq = PlacementWorkload();
  workload::ExperimentResult freq_result = report.Run(freq);
  ArmOutcome freq_out = Summarize(freq_result, 0);

  workload::ExperimentOptions qos = freq;
  qos.qos_replica_placement = true;
  workload::ExperimentResult qos_result = report.Run(qos);
  ArmOutcome qos_out = Summarize(qos_result, freq_out.wire_bytes);

  workload::ExperimentOptions gossip = qos;
  gossip.enable_gossip = true;
  workload::ExperimentResult gossip_result = report.Run(gossip);
  ArmOutcome gossip_out = Summarize(gossip_result, freq_out.wire_bytes);

  for (const auto& [label, out] :
       std::initializer_list<std::pair<const char*, const ArmOutcome*>>{
           {"freq-broadcast", &freq_out},
           {"qos-placement", &qos_out},
           {"qos+gossip", &gossip_out}}) {
    std::vector<double> values = {out->wire_kb,      out->saved_pct,
                                  out->pushes,       out->stale_probes,
                                  out->remote_hits,  out->gossip_invalidations,
                                  out->unique_answers};
    PrintRow(label, values);
    report.AddRow(label, values);
  }

  std::printf(
      "\nExpected: QoS placement pushes to the best 2 peers instead of "
      "every neighbor (pushes and wire KB fall); adding gossip turns "
      "probe-discovered staleness into pre-probe invalidations (stale "
      "probes fall toward zero, ginval rises), keeping total wire below "
      "the broadcast arm. Recall is identical across arms modulo loss "
      "noise — each dropped answer message loses its answers, and the "
      "arms see different drop schedules; at message_loss = 0 all three "
      "arms return exactly the same unique-answer count.\n");
  return report.Close();
}
