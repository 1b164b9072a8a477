#ifndef BESTPEER_CORE_CONFIG_H_
#define BESTPEER_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "util/metrics.h"
#include "util/sim_time.h"

namespace bestpeer::core {

/// How answers travel back to the query initiator (paper §2).
enum class AnswerMode : uint8_t {
  /// Mode 1: matching nodes return the answers (object contents) directly.
  kDirect = 1,
  /// Mode 2: matching nodes return match descriptors only; the initiator
  /// then fetches the content it wants (out-of-network download).
  kIndicate = 2,
};

/// Per-node BestPeer configuration.
struct BestPeerConfig {
  /// Maximum direct peers (the paper's k; "every BestPeer node has its
  /// own control over the maximum number of direct peers it can have").
  size_t max_direct_peers = 4;

  /// Reconfiguration strategy: "maxcount", "minhops" or "none" (= BPS).
  std::string strategy = "maxcount";

  /// Answer return mode.
  AnswerMode answer_mode = AnswerMode::kDirect;

  /// Default agent TTL for searches.
  uint16_t default_ttl = 7;

  /// Transport codec ("lzss" reproduces the paper's GZIP layer; "null"
  /// turns compression off).
  std::string codec = "lzss";

  /// In mode 2, automatically fetch content for every descriptor received.
  bool auto_fetch = true;

  /// Inbound connection cap: a node accepts peer-connect notices only
  /// while its total peer count is below 2x max_direct_peers (outgoing
  /// adoption is always bounded by k; the overflow headroom is for
  /// inbound links, like a servent's separate incoming-connection limit).
  size_t AcceptCap() const { return 2 * max_direct_peers; }

  // The modelled CPU costs and wire sizes are constants, not knobs: see
  // net/cost_model.h.

  // --- failure recovery -------------------------------------------------

  /// Deadline after which a query session finalizes with whatever answers
  /// arrived (results past it are dropped as late). 0 disables deadlines:
  /// sessions stay open forever, as in the lossless model.
  SimTime query_deadline = 0;

  /// Consecutive queries a direct peer may miss (no response by the
  /// deadline) before it is evicted and replaced. Only meaningful when
  /// query_deadline > 0, since otherwise misses are never observed.
  uint32_t peer_failure_threshold = 3;

  /// Resends the LIGLO client performs after a request timeout (0 keeps
  /// single-attempt semantics; see LigloClientOptions::max_retries).
  int liglo_max_retries = 0;

  /// How long the agent runtime's duplicate-drop table remembers an
  /// agent id (lost agents never deregister themselves). 0 = forever.
  SimTime agent_seen_expiry = 0;

  // --- result cache & hot-answer replication (opt-in) -------------------

  /// Enables the per-node query-result cache: searches carry per-responder
  /// IndexEpochs, responders answer repeats with tiny "not-modified"
  /// replies, and the base node re-materializes answers from its cached
  /// slices. Off (the default) keeps the wire format and schedule
  /// bit-identical to a cache-less build.
  bool enable_result_cache = false;

  /// Enables hot-answer replication: responders push the objects behind
  /// frequently served answers to their direct peers, so later queries
  /// are answered at hop 1. Requires enable_result_cache (the frequency
  /// sketch drives promotion).
  bool enable_replication = false;

  /// Sketch frequency a query must reach before its answers replicate.
  uint32_t replica_hot_threshold = 3;

  /// Max distinct hot keys tracked for promotion at once.
  size_t replica_top_k = 4;

  /// Replica lifetime at the receiver; the copy is deleted when it
  /// elapses (churn safety: a stale replica never outlives its TTL,
  /// crashes included). 0 keeps replicas forever.
  SimTime replica_ttl = Seconds(2);

  /// Minimum time between two pushes of the same hot key.
  SimTime replica_cooldown = Millis(500);

  // --- gossip anti-entropy plane (opt-in) -------------------------------

  /// Enables the per-node GossipAgent: seeded rumor-mongering push-pull
  /// rounds disseminating IndexEpoch bumps and replica-lease digests
  /// ahead of queries. Off (the default) constructs no agent, registers
  /// no gossip.* metrics and schedules no timers — gossip-off schedules
  /// stay bit-identical to a gossip-less build.
  bool enable_gossip = false;

  /// Peers contacted per gossip round.
  size_t gossip_fanout = 2;

  /// Interval between gossip rounds while rumors are hot.
  SimTime gossip_interval = Millis(2);

  /// Rounds a rumor stays hot (is re-pushed) before going quiescent.
  uint32_t gossip_hot_rounds = 3;

  /// Seed of the gossip peer-selection stream (mixed per node).
  uint64_t gossip_seed = 1;

  /// Scores replica-push targets by the QoS vector (observed RTT,
  /// failure history, link bandwidth) and pushes to the two best peers
  /// instead of broadcasting to every direct neighbor. Off keeps the
  /// frequency-broadcast behavior.
  bool qos_replica_placement = false;

  // --- index-backed search & content summaries (opt-in) -----------------

  /// Routes the StorM search agent through Storm::IndexSearch (sorted
  /// posting lists with galloping intersection) instead of the full
  /// per-object scan, charging net::kPerPostingCost per posting touched
  /// instead of net::kPerObjectMatchCost per object. Requires
  /// StormOptions::build_index; an agent landing on an index-less store
  /// falls back to the scan path. Off (the default) keeps schedules
  /// bit-identical to a scan-only build.
  bool use_index_search = false;

  /// Enables per-peer content summaries: each node digests its keyword
  /// index into a Bloom-filter summary, pushes it to direct peers at
  /// connect/reconfiguration time (and re-broadcasts when its index
  /// epoch moves), and skips launching search agents toward direct peers
  /// whose summary provably excludes every DNF branch of the query.
  bool enable_content_summaries = false;

  // --- observability ----------------------------------------------------

  /// Metrics sink shared by the node and its agent runtime (not owned;
  /// must outlive the node). nullptr routes increments to no-op handles.
  metrics::Registry* metrics = nullptr;
};

}  // namespace bestpeer::core

#endif  // BESTPEER_CORE_CONFIG_H_
