#include "sim/fault.h"

#include <algorithm>

#include "obs/flight_recorder.h"

namespace bestpeer::sim {

namespace {

std::pair<NodeId, NodeId> NormalizedPair(NodeId a, NodeId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

FaultInjector::FaultInjector(Simulator* sim, FaultOptions options)
    : sim_(sim), options_(options), rng_(options.seed) {
  if (options_.metrics != nullptr) {
    metrics::Registry* reg = options_.metrics;
    drops_.set_total(reg->GetCounter("fault.drops"));
    partition_drops_.set_total(reg->GetCounter("fault.partition_drops"));
    latency_spikes_.set_total(reg->GetCounter("fault.latency_spikes"));
    crashes_.set_total(reg->GetCounter("fault.crashes"));
    restarts_.set_total(reg->GetCounter("fault.restarts"));
  }
}

FaultDecision FaultInjector::OnSend(NodeId src, NodeId dst) {
  FaultDecision decision;
  // Partition cuts are checked first and consume no randomness: a severed
  // link drops everything regardless of the loss dice.
  if (!cut_.empty() && Partitioned(src, dst)) {
    decision.drop = true;
    decision.partition = true;
    partition_drops_.Increment();
    return decision;
  }
  // Zero-probability paths draw nothing, so a quiet injector leaves the
  // rng stream — and with it every downstream decision — untouched.
  if (options_.message_loss > 0 && rng_.NextBool(options_.message_loss)) {
    decision.drop = true;
    drops_.Increment();
    return decision;
  }
  if (options_.latency_spike_prob > 0 &&
      rng_.NextBool(options_.latency_spike_prob)) {
    decision.extra_delay = options_.latency_spike;
    latency_spikes_.Increment();
  }
  return decision;
}

void FaultInjector::ScheduleCrash(NodeId node, SimTime crash_at,
                                  SimTime down_for) {
  sim_->ScheduleAt(crash_at, [this, node]() {
    crashes_.Increment();
    if (obs::FlightRecorder* flight = sim_->flight()) {
      obs::FlightEvent e;
      e.ts = sim_->now();
      e.type = obs::EventType::kCrash;
      e.node = node;
      flight->Record(e);
      flight->TripAnomaly(sim_->now(),
                          "crash node=" + std::to_string(node));
    }
    if (set_online_) set_online_(node, false);
  });
  if (down_for > 0) {
    sim_->ScheduleAt(crash_at + down_for, [this, node]() {
      restarts_.Increment();
      if (obs::FlightRecorder* flight = sim_->flight()) {
        obs::FlightEvent e;
        e.ts = sim_->now();
        e.type = obs::EventType::kRestart;
        e.node = node;
        flight->Record(e);
      }
      if (set_online_) set_online_(node, true);
    });
  }
}

void FaultInjector::Partition(const std::vector<NodeId>& side_a,
                              const std::vector<NodeId>& side_b) {
  for (NodeId a : side_a) {
    for (NodeId b : side_b) {
      if (a == b) continue;
      cut_.insert(NormalizedPair(a, b));
    }
  }
}

void FaultInjector::Heal() { cut_.clear(); }

bool FaultInjector::Partitioned(NodeId src, NodeId dst) const {
  return cut_.count(NormalizedPair(src, dst)) != 0;
}

}  // namespace bestpeer::sim
