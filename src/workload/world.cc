#include "workload/world.h"

#include <cstdlib>
#include <utility>

#include "util/logging.h"

namespace bestpeer::workload {

namespace {

/// The variable's value, or "" when it is unset.
std::string EnvPath(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr ? std::string() : std::string(value);
}

}  // namespace

World::World(const ObsOptions& obs, const FaultRecoveryOptions& fault,
             uint64_t seed, sim::NetworkOptions net)
    : trace_out_(EnvPath("BP_TRACE_OUT")),
      flight_out_(EnvPath("BP_FLIGHT_OUT")) {
  if (obs.trace || !trace_out_.empty()) simulator_.EnableTracing();
  // Enabled before any protocol stack registers message-type names, so
  // the recorder sees them all.
  size_t flight_capacity = obs.flight_capacity;
  if (flight_capacity == 0 && !flight_out_.empty()) {
    flight_capacity = obs::FlightRecorderOptions{}.capacity;
  }
  if (flight_capacity > 0) {
    simulator_.EnableFlightRecorder({flight_capacity, flight_out_});
  }
  SimTime sample_interval = obs.sample_interval;
  if (const char* env = std::getenv("BP_SAMPLE_INTERVAL_US")) {
    const long v = std::atol(env);
    if (v > 0) sample_interval = static_cast<SimTime>(v);
  }
  if (sample_interval > 0) {
    sampler_ =
        std::make_unique<obs::TimeSeriesSampler>(&registry_, sample_interval);
    sampler_->AddDefaultColumns();
    sampler_driver_ =
        std::make_unique<obs::SamplerDriver>(&simulator_, sampler_.get());
  }
  fault.EnableOn(&simulator_, seed, &registry_);
  net.metrics = &registry_;
  network_ = std::make_unique<sim::SimNetwork>(&simulator_, net);
  fleet_ = std::make_unique<net::SimTransportFleet>(network_.get());
}

void World::Arm() {
  if (sampler_driver_ != nullptr) sampler_driver_->Arm();
}

void World::RecordQuery(NodeId node, uint64_t query_id, SimTime start,
                        SimTime duration) {
  trace::TraceRecorder* recorder = simulator_.trace();
  if (recorder == nullptr) return;
  trace::Span span;
  span.name = "query";
  span.cat = "query";
  span.tid = node;
  span.ts = start;
  span.dur = duration;
  span.flow = query_id;
  recorder->RecordSpan(std::move(span));
}

void World::Finish(RunArtifacts* out) {
  out->wire_bytes = network_->total_wire_bytes();
  out->metrics = registry_.TakeSnapshot();
  out->trace = simulator_.shared_trace();
  out->flight = simulator_.shared_flight();
  if (sampler_ != nullptr) out->timeseries = sampler_->Take();
  if (out->trace != nullptr && !trace_out_.empty()) {
    Status s = out->trace->WriteChromeJson(trace_out_);
    if (!s.ok()) {
      BP_LOG(Warn) << "BP_TRACE_OUT write failed: " << s.ToString();
    }
  }
  if (out->flight != nullptr && !flight_out_.empty()) {
    Status s = out->flight->WriteNdjson(flight_out_);
    if (!s.ok()) {
      BP_LOG(Warn) << "BP_FLIGHT_OUT write failed: " << s.ToString();
    }
  }
}

}  // namespace bestpeer::workload
