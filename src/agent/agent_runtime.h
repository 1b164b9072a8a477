#ifndef BESTPEER_AGENT_AGENT_RUNTIME_H_
#define BESTPEER_AGENT_AGENT_RUNTIME_H_

#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "agent/agent.h"
#include "agent/agent_message.h"
#include "agent/agent_registry.h"
#include "compress/codec.h"
#include "net/transport.h"
#include "util/sim_time.h"

namespace bestpeer::agent {

/// Message-type tag used for agent transfers on the simulated wire.
constexpr uint32_t kAgentTransferType = 0x41474E54;  // "AGNT"

/// Behaviour knobs of a node's agent engine (its costs are the
/// net/cost_model.h constants).
struct AgentRuntimeOptions {
  /// How long the duplicate-drop table remembers an agent id after its
  /// last sighting. Lost agents (dropped in flight, died with their host)
  /// never deregister; expiry ages them out (counted in agent.expired).
  /// 0 = no expiry: the table still keeps only the
  /// AgentRuntime::kSeenCapacity most recently sighted ids.
  SimTime seen_expiry = 0;
  /// Transport codec applied to agent messages (the paper's GZIP layer).
  std::shared_ptr<const Codec> codec = std::make_shared<NullCodec>();
  /// Metrics sink (not owned; must outlive the runtime). nullptr routes
  /// increments to no-op handles.
  metrics::Registry* metrics = nullptr;
};

/// Per-node mobile-agent engine (the "environment in which (mobile) agents
/// can reside and perform their tasks", §2).
///
/// Receipt pipeline, following §3.1:
///  1. Duplicate drop: an agent id seen before is discarded.
///  2. If TTL > 0, the agent is cloned and forwarded to every current
///     overlay neighbour except the arrival link (TTL-1, Hops+1). The
///     agent's path is fully transparent to the agent developer.
///  3. The agent is reconstructed (net::kAgentReconstructCost, plus
///     net::kAgentClassLoadCost on the first visit of this class; the
///     paper's "overhead of reconstructing the agent at the peer site")
///     and executed on a fresh thread of the node's CPU; its queued
///     sends fire when the work completes.
///
/// The execution is two parts. Its *work* is the agent's Execute plus
/// compressing its sends; its *continuation* bumps the counters and
/// charges the cost through RunCpu, whose completion sends. A store-only
/// agent (Agent::store_only) runs both through Transport::Offload, so over
/// TCP the work runs on a worker while the reactor moves on; any other
/// agent runs them inline, one after the other.
class AgentRuntime {
 public:
  /// Agent ids the duplicate-drop table keeps: the most recently sighted
  /// ones. An older id is forgotten silently; a clone of it arriving after
  /// this many newer agents would run again.
  static constexpr size_t kSeenCapacity = 256;

  /// Returns the node's *current* direct overlay neighbours — evaluated at
  /// forward time, so self-reconfiguration is picked up immediately.
  using NeighborFn = std::function<std::vector<NodeId>()>;

  /// All pointers must outlive the runtime. `transport` is this node's
  /// endpoint; `host` provides the services agents touch; `code_cache` is
  /// shared network-wide.
  AgentRuntime(net::Transport* transport, const AgentRegistry* registry,
               CodeCache* code_cache, AgentHost* host, NeighborFn neighbors,
               AgentRuntimeOptions options);

  AgentRuntime(const AgentRuntime&) = delete;
  AgentRuntime& operator=(const AgentRuntime&) = delete;

  /// Launches an agent from this node to `targets` (the caller picks
  /// them: the base node's direct peers, minus any the content-summary
  /// layer pruned, or the peers the shipping layer chose for code
  /// shipping). Each target receives a clone with TTL-1 and Hops 1 and
  /// clones onward while TTL lasts; TTL 0 sends nothing. `agent_id` must
  /// be globally unique.
  Status Launch(uint64_t agent_id, Agent& agent, uint16_t ttl,
                const std::vector<NodeId>& targets);

  /// Feeds a raw transport message into the engine (core nodes call this
  /// from their deliver handler for kAgentTransferType messages).
  Status OnMessage(const net::Message& msg);

  /// Statistics.
  uint64_t agents_received() const { return agents_received_.value(); }
  uint64_t duplicates_dropped() const { return duplicates_dropped_.value(); }
  uint64_t agents_executed() const { return agents_executed_.value(); }
  uint64_t clones_sent() const { return clones_sent_.value(); }
  /// Agent ids aged out of the duplicate-drop table (lost-agent expiry).
  uint64_t seen_expired() const { return seen_expired_.value(); }
  /// Current size of the duplicate-drop table.
  size_t seen_size() const { return seen_.size(); }

  NodeId node() const { return node_; }

 private:
  /// Clones `msg` to all neighbours except `skip` (TTL-1, Hops+1).
  void Forward(const AgentMessage& msg, NodeId skip);

  /// One agent execution: what its work hands its continuation.
  struct Execution;

  /// Reconstructs the agent carried by `msg` and runs its execution.
  Status ExecuteIncoming(const AgentMessage& msg);
  /// The continuation: counters, then the cost and the sends via RunCpu.
  void FinishExecution(Execution& run, SimTime setup, uint16_t hops,
                       FlowId flow);

  /// Sends one agent message to `dst`, shipping class bytes if needed.
  Status SendAgentTo(NodeId dst, const AgentMessage& msg);

  /// Records a sighting of `agent_id` now. True when it is new; false
  /// for a duplicate, whose sighting is refreshed.
  bool Sight(uint64_t agent_id);

  /// Drops duplicate-table entries unseen for options_.seen_expiry.
  void PruneSeen();

  net::Transport* transport_;
  NodeId node_;
  const AgentRegistry* registry_;
  CodeCache* code_cache_;
  AgentHost* host_;
  NeighborFn neighbors_;
  AgentRuntimeOptions options_;

  /// The duplicate-drop table: (agent id, last sighting) newest first,
  /// and each id's entry in that list.
  using SeenList = std::list<std::pair<uint64_t, SimTime>>;
  SeenList seen_order_;
  std::unordered_map<uint64_t, SeenList::iterator> seen_;
  metrics::Counter agents_received_;
  metrics::Counter duplicates_dropped_;
  metrics::Counter agents_executed_;
  metrics::Counter clones_sent_;
  metrics::Counter seen_expired_;

  metrics::Counter* ttl_deaths_c_ = metrics::Counter::Noop();
  metrics::Counter* class_loads_c_ = metrics::Counter::Noop();
  metrics::Counter* serialize_bytes_c_ = metrics::Counter::Noop();
  metrics::Counter* reconstruct_us_c_ = metrics::Counter::Noop();
  metrics::Histogram* hops_at_execute_ = metrics::Histogram::Noop();
};

}  // namespace bestpeer::agent

#endif  // BESTPEER_AGENT_AGENT_RUNTIME_H_
