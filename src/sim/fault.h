#ifndef BESTPEER_SIM_FAULT_H_
#define BESTPEER_SIM_FAULT_H_

#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace bestpeer::sim {

/// Index of a physical machine on the simulated LAN (same alias as
/// network.h; redeclared so this header does not depend on it).
using NodeId = uint32_t;

/// Knobs of the deterministic fault layer. Every probabilistic decision is
/// drawn from one seeded stream, so identical options produce identical
/// fault schedules — the property the churn/fault benches rely on.
struct FaultOptions {
  /// Seed of the fault decision stream.
  uint64_t seed = 1;
  /// Probability that any one message is lost in flight (drawn per send).
  double message_loss = 0.0;
  /// Probability that a delivered message suffers a latency spike.
  double latency_spike_prob = 0.0;
  /// Extra one-way delay added when a spike hits.
  SimTime latency_spike = Millis(50);
  /// Metrics sink (not owned; must outlive the injector). nullptr routes
  /// increments to no-op handles.
  metrics::Registry* metrics = nullptr;
};

/// Outcome of the single per-message decision point in SimNetwork::Send.
struct FaultDecision {
  bool drop = false;
  /// True when the drop came from a partition cut (vs. random loss);
  /// lets the flight recorder attribute the drop cause.
  bool partition = false;
  SimTime extra_delay = 0;
};

/// Deterministic fault injector: probabilistic message loss, per-message
/// latency spikes, scheduled node crash/restart and two-sided partitions.
///
/// Owned by the Simulator (like the trace recorder) so every network built
/// on that simulator sees the same fault plane. The network consults
/// OnSend() once per message; crash/restart flips node online state
/// through a hook the network installs when it binds. Zero probabilities
/// consume no randomness, so an attached-but-quiet injector leaves event
/// schedules bit-identical to a run without one.
class FaultInjector {
 public:
  explicit FaultInjector(Simulator* sim, FaultOptions options);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// The single drop/delay decision point, called by SimNetwork::Send for
  /// every message put on the wire.
  FaultDecision OnSend(NodeId src, NodeId dst);

  /// Schedules `node` to crash at absolute time `crash_at`; when
  /// `down_for` > 0 the node restarts that much later. Crashing flips the
  /// node offline through the bound network, so in-flight messages to it
  /// drop under the network's usual offline semantics.
  void ScheduleCrash(NodeId node, SimTime crash_at, SimTime down_for = 0);

  /// Installs a two-sided partition: messages between any node of `side_a`
  /// and any node of `side_b` drop, in both directions. Multiple
  /// partitions compose.
  void Partition(const std::vector<NodeId>& side_a,
                 const std::vector<NodeId>& side_b);

  /// Removes every partition.
  void Heal();

  /// Whether a message from `src` to `dst` crosses a partition cut.
  bool Partitioned(NodeId src, NodeId dst) const;

  /// Installed by the network the injector is bound to; receives
  /// (node, online) flips from scheduled crashes/restarts.
  void SetOnlineHook(std::function<void(NodeId, bool)> hook) {
    set_online_ = std::move(hook);
  }

  const FaultOptions& options() const { return options_; }

  /// Aggregate counters (also exported as fault.* metrics).
  uint64_t drops() const { return drops_.value(); }
  uint64_t partition_drops() const { return partition_drops_.value(); }
  uint64_t latency_spikes() const { return latency_spikes_.value(); }
  uint64_t crashes() const { return crashes_.value(); }
  uint64_t restarts() const { return restarts_.value(); }

 private:
  Simulator* sim_;
  FaultOptions options_;
  Rng rng_;
  std::function<void(NodeId, bool)> set_online_;
  /// Normalized (min, max) node pairs severed by active partitions.
  std::set<std::pair<NodeId, NodeId>> cut_;

  metrics::Counter drops_;
  metrics::Counter partition_drops_;
  metrics::Counter latency_spikes_;
  metrics::Counter crashes_;
  metrics::Counter restarts_;
};

}  // namespace bestpeer::sim

#endif  // BESTPEER_SIM_FAULT_H_
