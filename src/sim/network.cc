#include "sim/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "obs/flight_recorder.h"
#include "sim/fault.h"

namespace bestpeer::sim {

SimNetwork::SimNetwork(Simulator* sim, NetworkOptions options)
    : sim_(sim), options_(options) {
  assert(options_.bytes_per_us > 0);
  if (FaultInjector* faults = sim_->fault()) {
    // Scheduled crash/restart flips node state through us, so in-flight
    // messages to a crashed node drop under the usual offline semantics.
    faults->SetOnlineHook([this](NodeId node, bool online) {
      if (node < nodes_.size()) SetOnline(node, online);
    });
  }
  if (options_.metrics != nullptr) {
    metrics::Registry* reg = options_.metrics;
    messages_sent_.set_total(reg->GetCounter("net.messages_sent"));
    messages_dropped_.set_total(reg->GetCounter("net.messages_dropped"));
    total_wire_bytes_.set_total(reg->GetCounter("net.wire_bytes"));
    queue_wait_total_ = reg->GetCounter("net.queue_wait_us");
    delivery_latency_us_ = reg->GetHistogram("net.delivery_latency_us");
  }
}

NodeId SimNetwork::AddNode(int cpu_threads) {
  Node node;
  int threads = cpu_threads > 0 ? cpu_threads : options_.cpu_threads;
  NodeId id = static_cast<NodeId>(nodes_.size());
  node.cpu =
      std::make_unique<CpuModel>(sim_, threads, options_.metrics, id);
  if (options_.metrics != nullptr) {
    const metrics::LabelSet labels = {{"node", std::to_string(id)}};
    node.bytes_sent.set_total(
        options_.metrics->GetCounter("net.node_bytes_sent", labels));
    node.bytes_received.set_total(
        options_.metrics->GetCounter("net.node_bytes_received", labels));
  }
  node.queue_wait.set_total(queue_wait_total_);
  nodes_.push_back(std::move(node));
  return id;
}

void SimNetwork::SetHandler(NodeId node, Handler handler) {
  assert(node < nodes_.size());
  nodes_[node].handler = std::move(handler);
}

void SimNetwork::RegisterTypeName(uint32_t type, std::string name) {
  // Mirror into the flight recorder so NDJSON dumps carry the same
  // readable names as trace spans (enable the recorder before building
  // the protocol stacks, which is when names get registered).
  if (obs::FlightRecorder* flight = sim_->flight()) {
    flight->RegisterTypeName(type, name);
  }
  type_names_[type] = std::move(name);
}

SimTime SimNetwork::TxTime(size_t bytes) const {
  // Ceiling, not rounding: a nonzero payload always occupies the NIC for
  // at least 1 us. llround here let any message under bytes_per_us/2
  // bytes serialize in 0 us — a free infinite-bandwidth NIC for small
  // control messages that could reorder against the FIFO uplink model.
  return static_cast<SimTime>(
      std::ceil(static_cast<double>(bytes) / options_.bytes_per_us));
}

SimTime SimNetwork::NodeTxTime(NodeId node, size_t bytes) const {
  assert(node < nodes_.size());
  const double rate = nodes_[node].profile.bytes_per_us;
  if (rate <= 0) return TxTime(bytes);
  return static_cast<SimTime>(std::ceil(static_cast<double>(bytes) / rate));
}

void SimNetwork::SetLinkProfile(NodeId node, const LinkProfile& profile) {
  assert(node < nodes_.size());
  assert(profile.bytes_per_us >= 0 && profile.extra_latency >= 0);
  nodes_[node].profile = profile;
}

const LinkProfile& SimNetwork::link_profile(NodeId node) const {
  assert(node < nodes_.size());
  return nodes_[node].profile;
}

void SimNetwork::FlightMessage(obs::EventType type, const SimMessage& msg,
                               obs::DropCause cause, uint64_t b) {
  obs::FlightRecorder* flight = sim_->flight();
  if (flight == nullptr) return;
  obs::FlightEvent e;
  e.ts = sim_->now();
  e.type = type;
  e.cause = cause;
  e.msg_type = msg.type;
  e.node = msg.src;
  e.peer = msg.dst;
  e.flow = msg.flow;
  e.a = msg.wire_size;
  e.b = b;
  flight->Record(e);
}

void SimNetwork::TraceMessage(const SimMessage& msg, SimTime sent,
                              SimTime delivered, bool dropped,
                              SimTime up_wait, SimTime rx_wait) {
  trace::TraceRecorder* recorder = sim_->trace();
  if (recorder == nullptr) return;
  trace::Span span;
  span.name = trace::MessageName(type_names_, msg.type);
  if (dropped) span.name += " (dropped)";
  span.cat = "net";
  span.tid = msg.dst;
  span.ts = sent;
  span.dur = delivered - sent;
  span.flow = msg.flow;
  span.args = {{"src", msg.src},
               {"dst", msg.dst},
               {"wire", msg.wire_size}};
  if (up_wait > 0) {
    span.args.emplace_back("up_wait", static_cast<uint64_t>(up_wait));
  }
  if (rx_wait > 0) {
    span.args.emplace_back("rx_wait", static_cast<uint64_t>(rx_wait));
  }
  recorder->RecordSpan(std::move(span));
}

void SimNetwork::Send(NodeId src, NodeId dst, uint32_t type, Bytes payload,
                      size_t extra_wire_bytes, uint64_t flow) {
  assert(src < nodes_.size() && dst < nodes_.size());
  auto msg = std::make_shared<SimMessage>();
  msg->src = src;
  msg->dst = dst;
  msg->type = type;
  msg->wire_size =
      payload.size() + options_.header_overhead + extra_wire_bytes;
  msg->payload = std::move(payload);
  msg->id = next_message_id_++;
  msg->flow = flow;

  Node& sender = nodes_[src];
  const SimTime tx = NodeTxTime(src, msg->wire_size);
  const SimTime send_time = sim_->now();

  // A crashed/offline sender transmits nothing: its queued sends (e.g.
  // CPU work that completes after the crash) vanish at the source.
  if (!sender.online) {
    messages_dropped_.Increment();
    FlightMessage(obs::EventType::kMsgDrop, *msg,
                  obs::DropCause::kSenderOffline, msg->id);
    TraceMessage(*msg, send_time, send_time, /*dropped=*/true);
    return;
  }

  // Serialize on the sender's uplink (FIFO). Time spent waiting for the
  // NIC behind earlier transmissions is queueing delay charged to the
  // sender.
  SimTime up_start = std::max(send_time, sender.uplink_free_at);
  SimTime up_done = up_start + tx;
  sender.uplink_free_at = up_done;
  const SimTime up_wait = up_start - send_time;
  sender.bytes_sent.Add(msg->wire_size);
  sender.queue_wait.Add(static_cast<uint64_t>(up_wait));
  messages_sent_.Increment();
  total_wire_bytes_.Add(msg->wire_size);
  FlightMessage(obs::EventType::kMsgSend, *msg, obs::DropCause::kNone,
                msg->id);

  // Both endpoints' extra propagation delay applies: a slow link is slow
  // in either direction, whichever side of the transfer it sits on.
  SimTime arrival = up_done + options_.latency + sender.profile.extra_latency +
                    nodes_[dst].profile.extra_latency;

  // Single fault decision point: probabilistic in-flight loss and latency
  // spikes. The sender already paid for the uplink — the bytes were
  // transmitted — but a lost message never reaches the receiver's NIC.
  if (FaultInjector* faults = sim_->fault()) {
    FaultDecision decision = faults->OnSend(src, dst);
    if (decision.drop) {
      messages_dropped_.Increment();
      FlightMessage(obs::EventType::kMsgDrop, *msg,
                    decision.partition ? obs::DropCause::kPartition
                                       : obs::DropCause::kFaultLoss,
                    msg->id);
      sim_->ScheduleAt(arrival, [this, msg, send_time]() {
        TraceMessage(*msg, send_time, sim_->now(), /*dropped=*/true);
      });
      return;
    }
    arrival += decision.extra_delay;
  }

  // Propagate, then serialize on the receiver's downlink. The downlink
  // reservation must happen at arrival time (other packets may arrive in
  // between), so it is done inside the arrival event. The receiver's NIC
  // rate is captured now — in-flight messages keep the profile they were
  // sent under.
  const SimTime rx_tx = NodeTxTime(dst, msg->wire_size);
  sim_->ScheduleAt(arrival, [this, msg, rx_tx, send_time, up_wait]() {
    Node& receiver = nodes_[msg->dst];
    if (!receiver.online) {
      messages_dropped_.Increment();
      FlightMessage(obs::EventType::kMsgDrop, *msg,
                    obs::DropCause::kReceiverOffline, msg->id);
      TraceMessage(*msg, send_time, sim_->now(), /*dropped=*/true);
      return;
    }
    SimTime rx_start = std::max(sim_->now(), receiver.downlink_free_at);
    SimTime rx_done = rx_start + rx_tx;
    receiver.downlink_free_at = rx_done;
    // The receiver's queue-wait charge is deferred to delivery time: a
    // receiver that dies between the downlink reservation and rx_done
    // must not accrue queue/occupancy stats for a message it never got
    // (SetOnline(false) releases the NIC reservation itself).
    const SimTime rx_wait = rx_start - sim_->now();
    sim_->ScheduleAt(rx_done, [this, msg, send_time, up_wait, rx_wait]() {
      Node& node = nodes_[msg->dst];
      if (!node.online) {
        messages_dropped_.Increment();
        FlightMessage(obs::EventType::kMsgDrop, *msg,
                      obs::DropCause::kReceiverDied, msg->id);
        TraceMessage(*msg, send_time, sim_->now(), /*dropped=*/true);
        return;
      }
      node.queue_wait.Add(static_cast<uint64_t>(rx_wait));
      node.bytes_received.Add(msg->wire_size);
      delivery_latency_us_->Observe(
          static_cast<double>(sim_->now() - send_time));
      FlightMessage(obs::EventType::kMsgDeliver, *msg, obs::DropCause::kNone,
                    static_cast<uint64_t>(sim_->now() - send_time));
      TraceMessage(*msg, send_time, sim_->now(), /*dropped=*/false, up_wait,
                   rx_wait);
      if (trace_) trace_(*msg, send_time, sim_->now());
      if (node.handler) node.handler(*msg);
    });
  });
}

void SimNetwork::SetOnline(NodeId node, bool online) {
  assert(node < nodes_.size());
  Node& n = nodes_[node];
  if (n.online && !online) {
    // Going offline releases both NICs: a transfer into (or out of) a
    // dead host stops occupying the link, so messages queued behind it
    // are not delayed by a reservation that will never deliver.
    n.uplink_free_at = sim_->now();
    n.downlink_free_at = sim_->now();
  }
  n.online = online;
}

bool SimNetwork::IsOnline(NodeId node) const {
  assert(node < nodes_.size());
  return nodes_[node].online;
}

CpuModel& SimNetwork::Cpu(NodeId node) {
  assert(node < nodes_.size());
  return *nodes_[node].cpu;
}

uint64_t SimNetwork::node_bytes_sent(NodeId node) const {
  assert(node < nodes_.size());
  return nodes_[node].bytes_sent.value();
}

uint64_t SimNetwork::node_bytes_received(NodeId node) const {
  assert(node < nodes_.size());
  return nodes_[node].bytes_received.value();
}

SimTime SimNetwork::node_queue_wait(NodeId node) const {
  assert(node < nodes_.size());
  return static_cast<SimTime>(nodes_[node].queue_wait.value());
}

}  // namespace bestpeer::sim
