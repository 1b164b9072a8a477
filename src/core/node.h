#ifndef BESTPEER_CORE_NODE_H_
#define BESTPEER_CORE_NODE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "agent/agent_runtime.h"
#include "cache/replica_manager.h"
#include "cache/result_cache.h"
#include "core/active_object.h"
#include "core/compute.h"
#include "core/config.h"
#include "core/messages.h"
#include "core/peer_list.h"
#include "core/reconfig_strategy.h"
#include "core/session.h"
#include "core/shipping.h"
#include "gossip/gossip.h"
#include "liglo/liglo_client.h"
#include "net/dispatcher.h"
#include "net/transport.h"
#include "storm/storm.h"

namespace bestpeer::core {

/// Infrastructure shared by every BestPeer node on one simulated network:
/// the agent class registry, the network-wide code cache and the LAN
/// address plane. Construct one per experiment.
struct SharedInfra {
  agent::AgentRegistry agent_registry;
  agent::CodeCache code_cache;
  liglo::IpDirectory ip_directory;
};

/// Registers the built-in agent classes (StormSearchAgent, ComputeAgent)
/// in `registry` with code size net::kAgentCodeBytes. Idempotent per
/// registry.
Status RegisterBuiltinAgents(agent::AgentRegistry* registry);

/// One row of the telemetry plane's `/peers` endpoint: a direct peer's
/// health record plus what this node has learned about it.
struct PeerTelemetry {
  PeerInfo info;
  /// Last known shared-store size (0 = unknown).
  size_t store_size_hint = 0;
};

/// Point-in-time operator view of one node, assembled for `/peers`.
struct NodeTelemetry {
  std::vector<PeerTelemetry> peers;
  size_t peer_capacity = 0;
  size_t sessions_inflight = 0;
  uint64_t peer_evictions = 0;
  uint64_t reconfigurations = 0;
  /// Hot-answer replication state (zeros unless enable_replication).
  size_t replica_leases = 0;
  uint64_t replica_promotions = 0;
  uint64_t replica_pushes = 0;
  uint64_t replicas_expired = 0;
  uint64_t replicas_stored = 0;
  uint64_t leases_revoked = 0;
};

/// A node running the BestPeer software: storage (StorM), an agent
/// engine, a LIGLO client, a self-reconfiguring direct-peer list, and the
/// resource-sharing services of §3.2 (static files, active objects,
/// computational power).
class BestPeerNode : public agent::AgentHost, public ComputeHost {
 public:
  using FetchCallback = std::function<void(const FetchResponseMessage&)>;
  using ContentCallback = std::function<void(Result<Bytes>)>;
  using JoinCallback =
      std::function<void(Result<liglo::LigloClient::RegisterOutcome>)>;
  using RejoinCallback =
      std::function<void(Result<liglo::LigloClient::RejoinOutcome>)>;

  /// Creates a node on `transport`'s endpoint. `infra` and `transport`
  /// must outlive it. Fails on unknown strategy/codec names.
  static Result<std::unique_ptr<BestPeerNode>> Create(
      net::Transport* transport, SharedInfra* infra, BestPeerConfig config);

  ~BestPeerNode() override = default;
  BestPeerNode(const BestPeerNode&) = delete;
  BestPeerNode& operator=(const BestPeerNode&) = delete;

  // --- AgentHost / ComputeHost ------------------------------------------

  storm::Storm* storage() override { return storage_.get(); }
  NodeId host_node() const override { return node_; }
  const FilterRegistry& filters() const override { return filters_; }
  cache::ResultCache* result_cache() override { return result_cache_.get(); }
  void OnAnswerServed(std::string_view key,
                      const std::vector<uint64_t>& matches) override;

  // --- storage ------------------------------------------------------------

  /// Opens this node's StorM instance (in-memory unless options.path set).
  Status InitStorage(const storm::StormOptions& options);

  /// Stores `content` as a shared object.
  Status ShareObject(storm::ObjectId id, const Bytes& content);

  /// Stores a named shared file (content searchable like any object).
  Status ShareFile(const std::string& name, const Bytes& content);

  /// Object id behind a shared file name.
  Result<storm::ObjectId> LookupFile(const std::string& name) const;

  // --- membership (LIGLO, §2) ----------------------------------------------

  /// Registers with a LIGLO server, announcing `ip`, and adopts up to k
  /// of the returned (BPID, IP) entries as direct peers.
  void JoinNetwork(NodeId liglo_server, liglo::IpAddress ip,
                   JoinCallback callback);

  /// Rejoin protocol of §2: report the (new) ip to the home LIGLO, then
  /// re-resolve every direct peer via its home LIGLO; peers reported
  /// offline are dropped, changed addresses are refreshed.
  void RejoinNetwork(liglo::IpAddress ip, RejoinCallback callback);

  /// This node's BPID (invalid until joined).
  const liglo::Bpid& bpid() const { return liglo_->bpid(); }

  // --- direct peers ---------------------------------------------------------

  /// Wires a direct peer locally without any message exchange (used by
  /// topology builders; call on both endpoints for a bidirectional link).
  void AddDirectPeerLocal(NodeId peer);

  /// Drops a peer locally.
  void RemoveDirectPeerLocal(NodeId peer);

  const PeerList& peers() const { return peers_; }
  std::vector<NodeId> DirectPeerNodes() const { return peers_.Nodes(); }

  /// Health and replication state for the telemetry plane.
  /// Call on the transport's execution thread (it reads protocol state).
  NodeTelemetry TelemetrySnapshot() const;

  // --- querying (§2, §4.2) --------------------------------------------------

  /// Launches a StorM search agent through the overlay. Returns the query
  /// id; progress lands in the query's session.
  Result<uint64_t> IssueSearch(const std::string& keyword, uint16_t ttl = 0);

  /// Launches a compute agent carrying filter `filter_name` + `params`
  /// (computational-power sharing, §3.2.3).
  Result<uint64_t> IssueCompute(const std::string& filter_name,
                                const Bytes& params, uint16_t ttl = 0);

  /// One-hop search over the direct peers, choosing per peer between
  /// code shipping (send the agent) and data shipping (pull the store
  /// and scan locally) — the §6 future-work strategy selector. Adaptive
  /// mode uses each peer's last known store size (learned from earlier
  /// search results); unknown peers default to code shipping.
  Result<uint64_t> IssueDirectSearch(const std::string& keyword,
                                     ShippingMode mode);

  /// Last known shared-store size of `node` (0 = unknown).
  size_t StoreSizeHint(NodeId node) const;

  // --- replication (§6 future work) -----------------------------------------

  /// Pushes replicas of the given local objects to every direct peer, as
  /// a lease-less replica push. Receivers keep the copies for good under
  /// the same global ids; sessions deduplicate answers via
  /// QuerySession::unique_answers().
  Status ReplicateObjects(const std::vector<storm::ObjectId>& ids);

  /// Replicas this node has accepted from peers.
  uint64_t replicas_stored() const { return replicas_stored_; }

  // --- result cache & hot-answer replication ---------------------------------

  /// Replica bookkeeping (null unless config.enable_replication).
  cache::ReplicaManager* replica_manager() { return replica_mgr_.get(); }

  /// Not-modified replies this base node materialized from its cache.
  uint64_t cache_remote_hits() const { return cache_remote_hits_.value(); }
  /// Not-modified replies dropped because the matching slice was gone.
  uint64_t cache_notmod_orphans() const {
    return cache_notmod_orphans_.value();
  }
  /// Hot-answer replica pushes sent to peers.
  uint64_t replica_pushes() const { return replica_pushes_.value(); }
  /// Replicas this node deleted at their TTL.
  uint64_t replicas_expired() const { return replicas_expired_.value(); }

  // --- gossip anti-entropy plane ---------------------------------------------

  /// The node's gossip agent (null unless config.enable_gossip).
  gossip::GossipAgent* gossip_agent() { return gossip_.get(); }
  const gossip::GossipAgent* gossip_agent() const { return gossip_.get(); }

  /// Cached slices dropped ahead of a probe by a gossiped epoch bump.
  uint64_t gossip_invalidations() const {
    return gossip_invalidations_.value();
  }
  /// Full replies received for a probed source whose epoch had moved —
  /// the stale-probe round trips gossip exists to eliminate.
  uint64_t cache_stale_probes() const { return cache_stale_probes_.value(); }
  /// Leases this node revoked because the pushing peer was lost.
  uint64_t leases_revoked() const {
    return replica_mgr_ ? replica_mgr_->leases_revoked() : 0;
  }

  // --- content summaries -----------------------------------------------------

  /// Search launches that skipped a direct peer because its summary
  /// provably excluded every DNF branch of the query.
  uint64_t summary_skips() const { return summary_skips_.value(); }
  /// Direct peers whose content summary this node currently holds.
  size_t peer_summary_count() const { return peer_summaries_.size(); }

  // --- peer monitoring (§3.4) ------------------------------------------------

  /// Fires at a watcher for every store change at a watched provider.
  using UpdateCallback = std::function<void(
      NodeId provider, UpdateNotifyMessage::Kind kind,
      storm::ObjectId object_id)>;

  /// Subscribes to `provider`'s shared-store changes; notifications call
  /// `callback`. This is what BPIDs make possible: the watched peer stays
  /// the same logical peer across address changes.
  void WatchPeer(NodeId provider, UpdateCallback callback);

  /// Cancels a subscription.
  void UnwatchPeer(NodeId provider);

  /// Subscribers currently watching this node.
  size_t watcher_count() const { return watchers_.size(); }

  /// Removes a shared object and notifies watchers.
  Status UnshareObject(storm::ObjectId id);

  /// Replaces a shared object's content and notifies watchers.
  Status UpdateObject(storm::ObjectId id, const Bytes& content);

  /// The session of a query issued by this node (nullptr if unknown).
  const QuerySession* FindSession(uint64_t query_id) const;

  /// Closes the query at its deadline: the answer set freezes, late
  /// results are dropped (counted), and peers that never responded accrue
  /// a failure — at config.peer_failure_threshold they are evicted and
  /// replaced. Scheduled automatically when config.query_deadline > 0;
  /// callable directly for explicit cutoffs.
  void FinalizeSession(uint64_t query_id);

  /// Results that arrived after their session was finalized (dropped).
  uint64_t late_results() const { return late_results_.value(); }
  /// Sessions closed by a deadline.
  uint64_t sessions_finalized() const { return sessions_finalized_.value(); }
  /// Direct peers evicted for missing peer_failure_threshold deadlines.
  uint64_t peer_evictions() const { return peer_evictions_.value(); }

  /// Explicit mode-2 content fetch from `responder` (auto_fetch does this
  /// automatically on descriptor arrival).
  void FetchObjects(NodeId responder, uint64_t query_id,
                    const std::vector<storm::ObjectId>& ids);

  // --- self-reconfiguration (§3.3) -------------------------------------------

  /// Applies the configured strategy to the query's observations: adopts
  /// the chosen nodes as direct peers (connect messages go out) and drops
  /// the rest. Call when the query is considered complete.
  Status Reconfigure(uint64_t query_id);

  /// Number of times Reconfigure changed the peer set.
  uint64_t reconfigurations() const { return reconfigurations_.value(); }

  // --- active objects (§3.2.2) -----------------------------------------------

  ActiveNodeRegistry& active_nodes() { return active_nodes_; }
  FilterRegistry& mutable_filters() { return filters_; }

  /// Shares an active object under `name`.
  void ShareActiveObject(const std::string& name, ActiveObject object);

  /// Requests the rendering of `provider`'s active object for `level`.
  void RequestActiveObject(NodeId provider, const std::string& name,
                           AccessLevel level, ContentCallback callback);

  // --- misc -------------------------------------------------------------------

  NodeId node() const { return node_; }
  const BestPeerConfig& config() const { return config_; }
  agent::AgentRuntime& agent_runtime() { return *runtime_; }
  liglo::LigloClient& liglo_client() { return *liglo_; }
  uint64_t results_received() const { return results_received_.value(); }

 private:
  BestPeerNode(net::Transport* transport, SharedInfra* infra,
               BestPeerConfig config);

  Status Init();

  uint64_t NextQueryId();
  /// Opens the query's session and sends `agent` to every direct peer
  /// not in `skip`.
  Result<uint64_t> LaunchAgent(agent::Agent& agent, uint64_t query_id,
                               const std::string& keyword, uint16_t ttl,
                               const std::vector<NodeId>& skip);

  /// Arms the query_deadline timer for `query_id` (no-op when disabled).
  void ArmSessionDeadline(uint64_t query_id);

  /// Updates per-peer health from a finalized session: responders reset
  /// their failure streak, silent peers extend it (eviction at the
  /// threshold).
  void UpdatePeerHealth(const QuerySession& session);

  /// Replaces the direct-peer set; sends connect/disconnect notices.
  void ApplyPeerSet(const std::vector<NodeId>& new_peers,
                    const std::vector<PeerObservation>& observations);

  void OnSearchResult(const net::Message& msg);
  void OnFetchRequest(const net::Message& msg);
  void OnFetchResponse(const net::Message& msg);
  void OnDataShipRequest(const net::Message& msg);
  void OnDataShipResponse(const net::Message& msg);
  /// Stores pushed copies: leased hot-answer replicas (tracked, expired
  /// at their TTL, revoked with their pusher) or §6 copies (kept).
  void OnCacheReplicaPush(const net::Message& msg);
  /// Pushes the objects behind a hot answer to every direct peer.
  void PushHotReplicas(const std::vector<uint64_t>& ids);
  /// Deletes a pushed replica at its TTL (generation-guarded: a re-push
  /// re-arms the lease and orphans older timers).
  void ExpireReplica(storm::ObjectId id, uint64_t generation);
  void OnWatchRequest(const net::Message& msg);
  void OnUpdateNotify(const net::Message& msg);

  /// Sends an update notification to every watcher.
  void NotifyWatchers(UpdateNotifyMessage::Kind kind, storm::ObjectId id);
  void OnActiveObjectRequest(const net::Message& msg);
  void OnActiveObjectResponse(const net::Message& msg);
  void OnPeerConnect(const net::Message& msg);
  void OnPeerDisconnect(const net::Message& msg);
  void OnPeerSummary(const net::Message& msg);

  /// Reacts to a gossiped fact applied from a peer: epoch bumps
  /// pre-invalidate cached slices, lease expiries clear the lease book.
  void OnGossipApply(const gossip::GossipItem& item);
  /// Re-arms the gossip round timer after the peer set gained members.
  void NoteGossipPeersChanged();
  /// Drops every replica lease tied to a lost peer, in both roles: as
  /// receiver, deletes copies `peer` pushed here; as pusher, forgets
  /// leases granted to `peer`.
  void RevokeLeasesFrom(NodeId peer);

  /// This node's content summary at the current index epoch (rebuilt
  /// lazily when the epoch moves).
  const storm::ContentSummary& OwnSummary();
  /// Schedules a (debounced) summary re-broadcast to all direct peers.
  void ScheduleSummaryRefresh();
  /// Sends the current summary to every direct peer (skips when the
  /// epoch already went out).
  void BroadcastSummary();
  /// Sends the current summary to one peer unconditionally (connect and
  /// adoption sites).
  void SendSummaryTo(NodeId peer);
  /// Direct peers whose summary proves no match for any DNF branch of
  /// `keyword` (empty when summaries are off or the query is unparsable).
  std::vector<NodeId> SummarySkipSet(const std::string& keyword);

  /// Fetches replacement peers from the home LIGLO when the direct-peer
  /// list becomes empty — or, with `below_capacity`, whenever there is
  /// room (used after health evictions, which rarely empty the list).
  void ReplenishPeersIfIsolated(bool below_capacity = false);
  /// Adopts LIGLO peer entries as direct peers up to max_direct_peers
  /// (connect notice and summary to each new one), skipping stale
  /// addresses and, with `skip_self`, entries that resolve to this node.
  void AdoptLigloPeers(const std::vector<liglo::PeerEntry>& entries,
                       bool skip_self);

  /// The shared object `id` as a result item (fails when not stored).
  Result<ResultItem> ReadShared(storm::ObjectId id);

  /// `flow` tags the message with its query id for tracing (0 = none).
  void SendCompressed(NodeId dst, uint32_t type, const Bytes& payload,
                      uint64_t flow = 0);
  Result<Bytes> DecodePayload(const net::Message& msg) const;

  net::Transport* transport_;
  NodeId node_;
  SharedInfra* infra_;
  BestPeerConfig config_;

  std::shared_ptr<const Codec> codec_;
  std::unique_ptr<net::Dispatcher> dispatcher_;
  std::unique_ptr<liglo::LigloClient> liglo_;
  std::unique_ptr<agent::AgentRuntime> runtime_;
  std::unique_ptr<storm::Storm> storage_;
  std::unique_ptr<ReconfigStrategy> strategy_;
  std::unique_ptr<cache::ResultCache> result_cache_;
  std::unique_ptr<cache::ReplicaManager> replica_mgr_;
  std::unique_ptr<gossip::GossipAgent> gossip_;

  PeerList peers_;
  FilterRegistry filters_;
  ActiveNodeRegistry active_nodes_;
  std::map<std::string, ActiveObject> active_objects_;
  std::map<std::string, storm::ObjectId> shared_files_;

  std::map<uint64_t, QuerySession> sessions_;
  /// Per in-flight query: the cached slices (by responder) the launched
  /// agent's known-epoch map was built from. A not-modified reply is
  /// materialized from here — and only on an exact epoch match, so a
  /// slice evicted or invalidated mid-flight can never produce a stale
  /// answer.
  std::map<uint64_t, std::map<NodeId, cache::CachedSlice>> probe_snapshots_;
  std::map<uint64_t, ContentCallback> pending_content_;
  /// Last known store size per node, learned from search results.
  std::map<NodeId, size_t> store_size_hints_;
  uint32_t query_counter_ = 0;
  uint64_t request_counter_ = 0;
  bool replenish_in_flight_ = false;
  uint64_t replicas_stored_ = 0;
  /// Pusher-side lease book: holder -> object -> source epoch at grant.
  /// QoS placement skips holders already fresh-leased on an object;
  /// gossiped/local expiries and peer loss clear entries.
  std::map<NodeId, std::map<uint64_t, uint64_t>> lease_book_;
  std::set<NodeId> watchers_;
  std::map<NodeId, UpdateCallback> watching_;
  storm::ObjectId next_file_object_id_;

  /// Content-summary plane (all empty/idle unless
  /// config.enable_content_summaries).
  std::map<NodeId, storm::ContentSummary> peer_summaries_;
  storm::ContentSummary own_summary_;
  bool own_summary_valid_ = false;
  uint64_t last_broadcast_epoch_ = 0;
  bool summary_push_pending_ = false;

  /// Per-node event counts. With config.metrics set, Init points each at
  /// its core.* instrument (the cache, replica, summary and gossip ones
  /// only when their feature is on), so the registry sums the fleet.
  metrics::Counter results_received_;
  metrics::Counter reconfigurations_;
  metrics::Counter late_results_;
  metrics::Counter sessions_finalized_;
  metrics::Counter peer_evictions_;
  metrics::Counter cache_remote_hits_;
  metrics::Counter cache_notmod_orphans_;
  metrics::Counter cache_stale_probes_;
  metrics::Counter replica_pushes_;
  metrics::Counter replicas_expired_;
  metrics::Counter summary_skips_;
  metrics::Counter gossip_invalidations_;

  metrics::Counter* queries_issued_c_ = metrics::Counter::Noop();
  metrics::Counter* answers_received_c_ = metrics::Counter::Noop();
  metrics::Counter* fetches_issued_c_ = metrics::Counter::Noop();
  metrics::Gauge* inflight_sessions_g_ = metrics::Gauge::Noop();
  metrics::Histogram* result_hops_ = metrics::Histogram::Noop();
  metrics::Gauge* index_epoch_g_ = metrics::Gauge::Noop();
};

}  // namespace bestpeer::core

#endif  // BESTPEER_CORE_NODE_H_
