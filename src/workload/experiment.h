#ifndef BESTPEER_WORKLOAD_EXPERIMENT_H_
#define BESTPEER_WORKLOAD_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/session.h"
#include "sim/network.h"
#include "util/result.h"
#include "util/sim_time.h"
#include "workload/corpus.h"
#include "workload/fault_options.h"
#include "workload/topology.h"
#include "workload/world.h"

namespace bestpeer::workload {

/// The schemes compared in §4.
enum class Scheme {
  kScs,      ///< Single-thread client/server.
  kMcs,      ///< Multi-thread client/server.
  kBps,      ///< Static BestPeer (reconfiguration off).
  kBpr,      ///< Reconfigurable BestPeer.
  kGnutella  ///< Gnutella protocol servants (FURI-like).
};

/// Scheme name for report rows ("SCS", "MCS", "BPS", "BPR", "Gnutella").
std::string SchemeName(Scheme scheme);

/// One run of one query.
struct QueryMetrics {
  /// Time until all answers were received.
  SimTime completion = 0;
  /// (time, node, answers) per result arrival at the base node.
  std::vector<core::ResponseEvent> responses;
  size_t total_answers = 0;
  /// Distinct object ids among the answers (replication can duplicate).
  size_t unique_answers = 0;
  size_t responders = 0;
};

/// Full outcome of one experiment (same query repeated `queries` times).
/// RunAveraged averages wire bytes over seeds, sums their metric
/// snapshots and keeps the first seed's trace, timeseries and flight
/// recorder.
struct ExperimentResult : RunArtifacts {
  std::vector<QueryMetrics> queries;

  double MeanCompletionMs() const;
  double CompletionMs(size_t query_index) const;
  size_t TotalAnswers() const;
};

/// Configuration of one §4 experiment.
struct ExperimentOptions {
  Topology topology;
  Scheme scheme = Scheme::kBpr;

  /// Per-node store: `objects_per_node` objects of `object_size` bytes,
  /// of which `matches_per_node[i]` (or the uniform `matches_per_node`
  /// fallback) contain the query keyword at node i.
  size_t objects_per_node = 1000;
  size_t object_size = 1024;
  size_t matches_per_node = 10;
  std::vector<size_t> matches_per_node_vec;  // Optional override.

  /// How many times the same query is issued (reconfiguration takes
  /// effect between repetitions for BPR).
  size_t queries = 4;

  /// BestPeer-specific knobs.
  core::AnswerMode answer_mode = core::AnswerMode::kDirect;
  std::string strategy = "maxcount";  // BPR strategy.
  size_t max_direct_peers = 8;        // k.
  bool auto_fetch = true;             // Mode-2 content fetch.
  std::string codec = "lzss";
  uint16_t ttl = 16;

  /// Gnutella-specific: files per node (matching counts reuse
  /// matches_per_node / matches_per_node_vec).
  size_t files_per_node = 1000;

  /// Enable each node's StorM query cache: repeated identical queries
  /// skip the store scan until the store mutates.
  bool enable_query_cache = false;

  /// Result-cache & hot-answer replication knobs (BestPeer schemes only;
  /// they map onto the matching BestPeerConfig fields).
  bool enable_result_cache = false;
  bool enable_replication = false;
  size_t replica_top_k = 4;
  SimTime replica_ttl = 0;  ///< Receiver-side replica lifetime (0 = none).

  /// Gossip anti-entropy plane (maps onto BestPeerConfig::enable_gossip
  /// and friends). Off keeps schedules bit-identical to a gossip-less
  /// build.
  bool enable_gossip = false;
  size_t gossip_fanout = 2;
  SimTime gossip_interval = Millis(2);

  /// QoS-scored replica placement (the best-scored peers instead of a
  /// direct-neighbor broadcast).
  bool qos_replica_placement = false;

  /// Fault injection & recovery (shared knob block; defaults keep the
  /// fault machinery entirely out of the run — bit-identical schedules).
  /// message_loss applies to every scheme; the recovery knobs are
  /// BestPeer-only.
  FaultRecoveryOptions fault;

  /// Index-backed search: agents (and CS servers) answer from the StorM
  /// keyword index, charged per posting touched. Forces build_index at
  /// every store. Off keeps schedules bit-identical to the scan path.
  bool use_index_search = false;

  /// Per-peer content summaries (BestPeer schemes only): nodes exchange
  /// Bloom digests of their stores and the base skips launching agents
  /// toward direct peers that provably hold no match.
  bool enable_content_summaries = false;

  /// Zipf-repeat query mode: when query_pool > 0, each query's keyword is
  /// "needle<rank>" with rank drawn from a ZipfSampler over the pool
  /// (skew query_zipf_skew, dedicated rng), and matching objects contain
  /// every pool token so each of them answers all pooled queries
  /// (RunExperiment rejects a pool wider than object_size; see
  /// CorpusGenerator::PoolBytes). The skewed repetition is what gives a
  /// result cache something to hit. 0 = the original single-keyword
  /// workload, bit-identical to before.
  size_t query_pool = 0;
  double query_zipf_skew = 1.1;

  /// When > 0: after every `mutate_every`-th query, unshare one matching
  /// object at a rotating non-base node — a mid-workload StorM mutation
  /// that must invalidate cached results (never serve stale). 0 = off.
  size_t mutate_every = 0;

  /// Pre-load the standard agent classes at every node before measuring.
  /// The StorM search agent ships with the BestPeer platform, so steady
  /// state has it resident everywhere; set false to measure cold-cache
  /// code-shipping cost (the ablation benches do).
  bool prewarm_code_cache = true;

  uint64_t seed = 42;
  sim::NetworkOptions net;

  /// Trace, timeseries and flight planes (see ObsOptions).
  ObsOptions obs;

  /// Number of matches expected at node `i`.
  size_t MatchesAt(size_t i) const {
    if (!matches_per_node_vec.empty()) return matches_per_node_vec[i];
    return matches_per_node;
  }
};

/// Builds the network described by `options`, runs the repeated query and
/// returns per-query metrics. Deterministic per (options, seed).
Result<ExperimentResult> RunExperiment(const ExperimentOptions& options);

/// Averages the same experiment over `seeds.size()` runs, like the
/// paper's "average of at least three different executions".
Result<ExperimentResult> RunAveraged(ExperimentOptions options,
                                     const std::vector<uint64_t>& seeds);

/// Places `hot_count` nodes with `matches_each` answers as far from the
/// base as possible (everyone else has none) — the Fig. 8 setup where
/// answers "come from only a few nodes".
std::vector<size_t> FarHotPlacement(const Topology& topology,
                                    size_t hot_count, size_t matches_each);

}  // namespace bestpeer::workload

#endif  // BESTPEER_WORKLOAD_EXPERIMENT_H_
