#ifndef BESTPEER_SIM_NETWORK_H_
#define BESTPEER_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/message.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "util/bytes.h"
#include "util/ids.h"
#include "util/metrics.h"
#include "util/sim_time.h"

namespace bestpeer::obs {
enum class EventType : uint8_t;
enum class DropCause : uint8_t;
}  // namespace bestpeer::obs

namespace bestpeer::sim {

// Back-compat aliases: the canonical homes are util/ids.h (addresses) and
// net/message.h (the transport-independent datagram).
using bestpeer::kInvalidNode;
using bestpeer::NodeId;
using SimMessage = net::Message;

/// Per-node link override for heterogeneous fleets (scenario engine):
/// a node's NIC bandwidth and an extra propagation delay its messages
/// pay, modelling e.g. a DSL or mobile peer on an otherwise fast LAN.
/// Default-constructed profiles change nothing, so homogeneous runs stay
/// byte-identical to a network without profiles.
struct LinkProfile {
  /// NIC bandwidth in bytes/µs; 0 uses the network's default.
  double bytes_per_us = 0;
  /// Extra one-way propagation latency added to every message this node
  /// sends or receives.
  SimTime extra_latency = 0;
};

/// Cost parameters of the simulated LAN; see DESIGN.md section 4.
struct NetworkOptions {
  /// One-way propagation latency per physical hop.
  SimTime latency = Micros(500);
  /// NIC bandwidth in bytes per microsecond (12.5 == 100 Mbit/s, the
  /// class of switched lab Ethernet behind the paper's cluster).
  double bytes_per_us = 12.5;
  /// Fixed per-message framing overhead added to wire_size. Matches the
  /// real TCP backend's frame header byte-for-byte so simulated and real
  /// wire counts stay comparable.
  size_t header_overhead = net::kFrameOverheadBytes;
  /// CPU threads per node (the MCS/SCS distinction is made at the
  /// protocol layer; nodes default to enough threads to overlap work).
  int cpu_threads = 4;
  /// Metrics sink for this network and its nodes' CPUs (not owned; must
  /// outlive the network). Without one, the counts behind the accessors
  /// are still kept and every other instrument is a no-op.
  metrics::Registry* metrics = nullptr;
};

/// The physical network: a fully connected LAN of nodes, each with an
/// uplink NIC, a downlink NIC and a CPU. Overlay topologies (who is whose
/// *peer*) are a protocol-level concept layered on top — exactly as in the
/// paper, where all 32 PCs share a LAN but BestPeer imposes a logical
/// topology (paper footnote 1: "this is only a logical 'connection'").
///
/// Transmission model (store-and-forward NIC): a message serializes at the
/// sender's uplink, propagates with fixed latency, then serializes at the
/// receiver's downlink. Both NICs are FIFO, so concurrent transfers queue —
/// this is what makes 31 answers converging on one base node take longer
/// than one answer, and it penalizes path-relaying schemes (CS, Gnutella)
/// on every intermediate hop.
class SimNetwork {
 public:
  using Handler = std::function<void(const SimMessage&)>;
  /// (message, time sent, time delivered) — fires on each delivery.
  using TraceFn =
      std::function<void(const SimMessage&, SimTime, SimTime)>;

  SimNetwork(Simulator* sim, NetworkOptions options);
  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// Adds a node; returns its id. cpu_threads <= 0 uses the default.
  NodeId AddNode(int cpu_threads = 0);

  /// Registers the message handler for `node` (replaces any previous one).
  void SetHandler(NodeId node, Handler handler);

  /// Sends a message; it is delivered to the destination handler after
  /// NIC serialization + latency. `extra_wire_bytes` adds modelled bytes
  /// (e.g. a shipped agent class) without materializing them. `flow`
  /// tags the message with its query/agent id for tracing (0 = none).
  /// Messages to — or from — offline nodes are silently dropped
  /// (counted), as are messages the simulator's fault injector loses.
  void Send(NodeId src, NodeId dst, uint32_t type, Bytes payload,
            size_t extra_wire_bytes = 0, uint64_t flow = 0);

  /// Marks a node online/offline. Offline nodes drop incoming messages.
  void SetOnline(NodeId node, bool online);
  bool IsOnline(NodeId node) const;

  /// Installs a per-node link override (heterogeneous fleets). Affects
  /// messages sent and received from now on; in-flight reservations keep
  /// the profile they were made under.
  void SetLinkProfile(NodeId node, const LinkProfile& profile);
  const LinkProfile& link_profile(NodeId node) const;

  /// The node's CPU (submit work to consume simulated time).
  CpuModel& Cpu(NodeId node);

  /// Installs a delivery trace hook (pass nullptr to remove).
  void SetTrace(TraceFn trace) { trace_ = std::move(trace); }

  Simulator& simulator() { return *sim_; }
  const NetworkOptions& options() const { return options_; }
  size_t node_count() const { return nodes_.size(); }

  /// Names a message type for trace spans and debugging (e.g.
  /// "agent.migrate" for the agent transfer tag). Unnamed types render
  /// as "msg:<hex>".
  void RegisterTypeName(uint32_t type, std::string name);

  /// Aggregate counters.
  uint64_t messages_sent() const { return messages_sent_.value(); }
  uint64_t messages_dropped() const { return messages_dropped_.value(); }
  uint64_t total_wire_bytes() const { return total_wire_bytes_.value(); }
  uint64_t node_bytes_sent(NodeId node) const;
  uint64_t node_bytes_received(NodeId node) const;

  /// Total time this node's messages spent queued behind earlier
  /// transmissions on a NIC: uplink waits charge the sender, downlink
  /// waits the receiver. This is the congestion signal the paper's
  /// convergecast patterns (31 answers into one base node) produce.
  SimTime node_queue_wait(NodeId node) const;

  /// Transmission time of `bytes` through one NIC at the default rate.
  SimTime TxTime(size_t bytes) const;

  /// Transmission time of `bytes` through `node`'s NIC (honours its link
  /// profile; equal to TxTime when no profile is set).
  SimTime NodeTxTime(NodeId node, size_t bytes) const;

 private:
  struct Node {
    SimTime uplink_free_at = 0;
    SimTime downlink_free_at = 0;
    LinkProfile profile;
    std::unique_ptr<CpuModel> cpu;
    Handler handler;
    bool online = true;
    metrics::Counter bytes_sent;
    metrics::Counter bytes_received;
    /// Microseconds; its total is the fleet-wide net.queue_wait_us.
    metrics::Counter queue_wait;
  };

  /// Records one wire span on the trace recorder (tracing enabled only).
  /// `up_wait`/`rx_wait` are the FIFO queueing portions of the span, so
  /// the critical-path analyzer can split queueing from transmission.
  void TraceMessage(const SimMessage& msg, SimTime sent, SimTime delivered,
                    bool dropped, SimTime up_wait = 0, SimTime rx_wait = 0);

  /// Records one message event on the flight recorder (enabled only).
  /// `b` carries the event's second payload (delivery latency for
  /// kMsgDeliver, the message id otherwise).
  void FlightMessage(obs::EventType type, const SimMessage& msg,
                     obs::DropCause cause, uint64_t b);

  Simulator* sim_;
  NetworkOptions options_;
  std::vector<Node> nodes_;
  TraceFn trace_;
  std::map<uint32_t, std::string> type_names_;
  uint64_t next_message_id_ = 1;
  metrics::Counter messages_sent_;
  metrics::Counter messages_dropped_;
  metrics::Counter total_wire_bytes_;

  /// net.queue_wait_us, the total every node's queue_wait feeds (nullptr
  /// without a registry).
  metrics::Counter* queue_wait_total_ = nullptr;
  metrics::Histogram* delivery_latency_us_ = metrics::Histogram::Noop();
};

}  // namespace bestpeer::sim

#endif  // BESTPEER_SIM_NETWORK_H_
