#ifndef BESTPEER_AGENT_AGENT_H_
#define BESTPEER_AGENT_AGENT_H_

#include <memory>
#include <string_view>
#include <vector>

#include "util/ids.h"
#include "storm/storm.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/sim_time.h"

namespace bestpeer::cache {
class ResultCache;
}  // namespace bestpeer::cache

namespace bestpeer::agent {

/// The environment an agent can touch while executing at a node. The core
/// library's node type implements this; concrete agents that need more
/// than storage may downcast to the host type they were designed for.
class AgentHost {
 public:
  virtual ~AgentHost() = default;

  /// The node's storage manager; may be null on storage-less nodes.
  virtual storm::Storm* storage() = 0;

  /// The physical id of the hosting node.
  virtual NodeId host_node() const = 0;

  /// The node's query-result cache; null (the default) when result
  /// caching is disabled at this host.
  virtual cache::ResultCache* result_cache() { return nullptr; }

  /// Invoked after a search served `matches` for the normalized query
  /// `key` at this host (from cache or a fresh scan). Hosts may use it to
  /// promote hot answers into neighbor replicas. Default: no-op.
  virtual void OnAnswerServed(std::string_view key,
                              const std::vector<uint64_t>& matches) {
    (void)key;
    (void)matches;
  }
};

/// Collects the externally visible effects of one agent execution.
/// The runtime charges the CPU cost first and only then performs the
/// sends, so results leave the node when the simulated work is done.
class AgentContext {
 public:
  struct Send {
    NodeId dst;
    uint32_t type;
    Bytes payload;
  };

  AgentContext(AgentHost* host, NodeId current, NodeId origin,
               uint16_t hops, uint16_t ttl)
      : host_(host),
        current_(current),
        origin_(origin),
        hops_(hops),
        ttl_(ttl) {}

  /// The hosting environment.
  AgentHost* host() { return host_; }

  /// Node the agent is executing on.
  NodeId current_node() const { return current_; }

  /// Node that launched the agent (the paper's "base node").
  NodeId origin_node() const { return origin_; }

  /// Overlay hops travelled from the base node to here.
  uint16_t hops() const { return hops_; }

  /// Remaining time-to-live.
  uint16_t ttl() const { return ttl_; }

  /// Adds simulated CPU time consumed by the execution.
  void ChargeCpu(SimTime cost) { cpu_cost_ += cost; }

  /// Queues a message to be sent when the execution's CPU cost elapses.
  void SendMessage(NodeId dst, uint32_t type, Bytes payload) {
    sends_.push_back(Send{dst, type, std::move(payload)});
  }

  SimTime cpu_cost() const { return cpu_cost_; }
  const std::vector<Send>& sends() const { return sends_; }
  std::vector<Send>& mutable_sends() { return sends_; }

 private:
  AgentHost* host_;
  NodeId current_;
  NodeId origin_;
  uint16_t hops_;
  uint16_t ttl_;
  SimTime cpu_cost_ = 0;
  std::vector<Send> sends_;
};

/// A mobile agent: serializable state plus behaviour executed at each node
/// it visits. In the paper agents are Java objects whose class and state
/// ship between peers; here state genuinely serializes through
/// SaveState/LoadState and "code" is a factory registered by class name
/// (see AgentRegistry) whose byte size is charged to the wire.
class Agent {
 public:
  virtual ~Agent() = default;

  /// The registered class name; identifies the factory and code size.
  virtual std::string_view class_name() const = 0;

  /// Serializes mutable state for shipment.
  virtual Bytes SaveState() const = 0;

  /// Restores state at the destination engine from exactly `state`, on a
  /// fresh agent from AgentRegistry::Create. The state arrives from
  /// another node, so it is hostile input: a class lists its fields in a
  /// util/wire.h Wire() and forwards both calls to it.
  virtual Status LoadState(const Bytes& state) = 0;

  /// Runs at the current node. Report CPU via ctx.ChargeCpu and outputs
  /// via ctx.SendMessage; both are applied by the runtime.
  virtual Status Execute(AgentContext& ctx) = 0;

  /// True when Execute touches nothing but `ctx` and
  /// ctx.host()->storage() (whose calls lock the store), so the runtime
  /// may run it off the node's event thread (net::Transport::Offload).
  /// The default, false, keeps the execution inline: an agent that
  /// reaches other host services or runs user code must not declare it.
  virtual bool store_only() const { return false; }
};

}  // namespace bestpeer::agent

#endif  // BESTPEER_AGENT_AGENT_H_
