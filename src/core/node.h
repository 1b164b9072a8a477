#ifndef BESTPEER_CORE_NODE_H_
#define BESTPEER_CORE_NODE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "agent/agent_runtime.h"
#include "core/compute.h"
#include "core/config.h"
#include "core/messages.h"
#include "core/node_active_objects.h"
#include "core/node_cache_probe.h"
#include "core/node_io.h"
#include "core/node_replicas.h"
#include "core/node_shipping.h"
#include "core/node_summaries.h"
#include "core/node_watch.h"
#include "core/peer_list.h"
#include "core/reconfig_strategy.h"
#include "core/session.h"
#include "gossip/gossip.h"
#include "liglo/liglo_client.h"
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

/// A node running the BestPeer software: storage (StorM), an agent
/// engine, a LIGLO client, a self-reconfiguring direct-peer list, and the
/// services of §3.2–§3.4 and §6 as feature components. Each component
/// registers its own message types on the node's typed message path and
/// owns its state and counters; the node owns membership, direct peers,
/// sessions, search and reconfiguration, and is the only code that knows
/// every component. A feature that is off is an absent component.
class BestPeerNode : public agent::AgentHost, public ComputeHost {
 public:
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
  cache::ResultCache* result_cache() override {
    return cache_probe_ != nullptr ? &cache_probe_->cache() : nullptr;
  }
  void OnAnswerServed(std::string_view key,
                      const std::vector<uint64_t>& matches) override {
    replicas_->OnAnswerServed(key, matches);
  }

  // --- feature components ---------------------------------------------------

  /// Peer monitoring (§3.4).
  PeerWatch& watch() { return *watch_; }
  /// Active-object sharing (§3.2.2).
  ActiveObjects& active_objects() { return *active_objects_; }
  /// Mode-2 fetches and code/data-shipping searches.
  ObjectShipping& shipping() { return *shipping_; }
  /// §6 and hot-answer replicas.
  Replicas& replicas() { return *replicas_; }
  /// Content summaries (null unless config.enable_content_summaries).
  ContentSummaries* summaries() { return summaries_.get(); }
  /// Result cache and probes (null unless config.enable_result_cache).
  CacheProbe* cache_probe() { return cache_probe_.get(); }
  /// The gossip agent (null unless config.enable_gossip).
  gossip::GossipAgent* gossip_agent() { return gossip_.get(); }
  const gossip::GossipAgent* gossip_agent() const { return gossip_.get(); }

  // --- storage ------------------------------------------------------------

  /// Opens this node's StorM instance (in-memory unless options.path set).
  Status InitStorage(const storm::StormOptions& options);

  /// Stores `content` as a shared object.
  Status ShareObject(storm::ObjectId id, const Bytes& content);

  /// Removes a shared object and notifies watchers.
  Status UnshareObject(storm::ObjectId id);

  /// Replaces a shared object's content and notifies watchers.
  Status UpdateObject(storm::ObjectId id, const Bytes& content);

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

  const PeerList& peers() const { return peers_; }

  // --- querying (§2, §4.2) --------------------------------------------------

  /// Launches a StorM search agent through the overlay. Returns the query
  /// id; progress lands in the query's session.
  Result<uint64_t> IssueSearch(const std::string& keyword, uint16_t ttl = 0);

  /// Launches a compute agent carrying filter `filter_name` + `params`
  /// (computational-power sharing, §3.2.3).
  Result<uint64_t> IssueCompute(const std::string& filter_name,
                                const Bytes& params, uint16_t ttl = 0);

  /// The session of a query issued by this node (nullptr if unknown).
  const QuerySession* FindSession(uint64_t query_id) const {
    return sessions_->Find(query_id);
  }
  /// Every query this node issued, with the late-result counts.
  const SessionTable& sessions() const { return *sessions_; }

  /// Closes the query at its deadline: the answer set freezes, late
  /// results are dropped (counted), and peers that never responded accrue
  /// a failure — at config.peer_failure_threshold they are evicted and
  /// replaced. Scheduled automatically when config.query_deadline > 0;
  /// callable directly for explicit cutoffs.
  void FinalizeSession(uint64_t query_id);

  /// Direct peers evicted for missing peer_failure_threshold deadlines.
  uint64_t peer_evictions() const { return peer_evictions_.value(); }

  // --- self-reconfiguration (§3.3) -------------------------------------------

  /// Applies the configured strategy to the query's observations: adopts
  /// the chosen nodes as direct peers (connect messages go out) and drops
  /// the rest. Call when the query is considered complete.
  Status Reconfigure(uint64_t query_id);

  /// Number of times Reconfigure changed the peer set.
  uint64_t reconfigurations() const { return reconfigurations_.value(); }

  // --- misc -------------------------------------------------------------------

  FilterRegistry& mutable_filters() { return filters_; }
  NodeId node() const { return node_; }
  const BestPeerConfig& config() const { return config_; }
  agent::AgentRuntime& agent_runtime() { return *runtime_; }
  liglo::LigloClient& liglo_client() { return *liglo_; }
  uint64_t results_received() const { return results_received_.value(); }

 private:
  BestPeerNode(net::Transport* transport, SharedInfra* infra,
               BestPeerConfig config);

  Status Init();

  /// Opens the query's session and sends `agent` to every direct peer
  /// not in `skip`.
  Result<uint64_t> LaunchAgent(agent::Agent& agent, uint64_t query_id,
                               const std::string& keyword, uint16_t ttl,
                               const std::vector<NodeId>& skip);

  /// Updates per-peer health from a finalized session: responders reset
  /// their failure streak, silent peers extend it (eviction at the
  /// threshold).
  void UpdatePeerHealth(const QuerySession& session);

  /// Replaces the direct-peer set; sends connect/disconnect notices.
  void ApplyPeerSet(const std::vector<NodeId>& new_peers,
                    const std::vector<PeerObservation>& observations);

  /// Adds a direct peer, sends it the connect notice (unless it opened
  /// the link) and then this node's summary. False when not added.
  bool AdoptPeer(const PeerInfo& info, bool send_notice = true);
  /// Removes a direct peer, forgets its summary and revokes its leases.
  /// Callers send the disconnect notice where one is owed.
  void DropPeer(NodeId peer);

  void OnSearchResult(NodeId responder, SearchResultMessage& result);
  void OnPeerConnect(NodeId src);
  void OnPeerDisconnect(NodeId src);

  /// Fans a gossiped fact out to the components it concerns.
  void OnGossipApply(const gossip::GossipItem& item);
  /// Re-arms the gossip round timer after the peer set gained members.
  void NoteGossipPeersChanged();

  /// Fetches replacement peers from the home LIGLO when the direct-peer
  /// list becomes empty — or, with `below_capacity`, whenever there is
  /// room (used after health evictions, which rarely empty the list).
  void ReplenishPeersIfIsolated(bool below_capacity = false);
  /// Adopts LIGLO peer entries as direct peers up to max_direct_peers,
  /// skipping stale addresses and entries that resolve to this node.
  void AdoptLigloPeers(const std::vector<liglo::PeerEntry>& entries);

  net::Transport* transport_;
  NodeId node_;
  SharedInfra* infra_;
  BestPeerConfig config_;
  PeerList peers_;
  FilterRegistry filters_;

  std::unique_ptr<NodeIo> io_;
  std::unique_ptr<SessionTable> sessions_;
  std::unique_ptr<liglo::LigloClient> liglo_;
  std::unique_ptr<agent::AgentRuntime> runtime_;
  std::unique_ptr<storm::Storm> storage_;
  const ReconfigStrategy* strategy_ = nullptr;
  std::unique_ptr<gossip::GossipAgent> gossip_;

  std::unique_ptr<CacheProbe> cache_probe_;
  std::unique_ptr<ContentSummaries> summaries_;
  std::unique_ptr<PeerWatch> watch_;
  std::unique_ptr<ActiveObjects> active_objects_;
  std::unique_ptr<ObjectShipping> shipping_;
  std::unique_ptr<Replicas> replicas_;

  std::map<std::string, storm::ObjectId> shared_files_;
  storm::ObjectId next_file_object_id_;
  bool replenish_in_flight_ = false;

  /// Per-node event counts. With config.metrics set, Init points each at
  /// its core.* instrument, so the registry sums the fleet.
  metrics::Counter results_received_;
  metrics::Counter reconfigurations_;
  metrics::Counter peer_evictions_;
  metrics::Counter* answers_received_c_ = metrics::Counter::Noop();
  metrics::Histogram* result_hops_ = metrics::Histogram::Noop();
};

}  // namespace bestpeer::core

#endif  // BESTPEER_CORE_NODE_H_
