#include "obs/flight_recorder.h"

#include <cstdio>

#include "util/json_writer.h"
#include "util/trace.h"

namespace bestpeer::obs {

std::string_view EventTypeName(EventType type) {
  switch (type) {
    case EventType::kMsgSend:
      return "msg_send";
    case EventType::kMsgDeliver:
      return "msg_deliver";
    case EventType::kMsgDrop:
      return "msg_drop";
    case EventType::kAgentHop:
      return "agent_hop";
    case EventType::kReconfig:
      return "reconfig";
    case EventType::kSessionFinalize:
      return "session_finalize";
    case EventType::kDeadlineExpire:
      return "deadline_expire";
    case EventType::kLigloRetry:
      return "liglo_retry";
    case EventType::kCrash:
      return "crash";
    case EventType::kRestart:
      return "restart";
    case EventType::kAnomaly:
      return "anomaly";
    case EventType::kCacheHit:
      return "cache_hit";
    case EventType::kCacheMiss:
      return "cache_miss";
    case EventType::kCacheEvict:
      return "cache_evict";
    case EventType::kCacheInvalidate:
      return "cache_invalidate";
    case EventType::kReplicaPush:
      return "replica_push";
    case EventType::kReplicaExpire:
      return "replica_expire";
    case EventType::kTraceSampled:
      return "trace_sampled";
    case EventType::kGossipSend:
      return "gossip_send";
    case EventType::kGossipApply:
      return "gossip_apply";
    case EventType::kLeaseRevoke:
      return "lease_revoke";
  }
  return "unknown";
}

std::string_view DropCauseName(DropCause cause) {
  switch (cause) {
    case DropCause::kNone:
      return "none";
    case DropCause::kFaultLoss:
      return "fault_loss";
    case DropCause::kPartition:
      return "partition";
    case DropCause::kSenderOffline:
      return "sender_offline";
    case DropCause::kReceiverOffline:
      return "receiver_offline";
    case DropCause::kReceiverDied:
      return "receiver_died";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : capacity_(options.capacity == 0 ? 1 : options.capacity),
      auto_dump_path_(std::move(options.auto_dump_path)) {
  // Reserve up front: Record() never allocates afterwards, so an enabled
  // recorder perturbs neither the allocator nor the event schedule.
  ring_.reserve(capacity_);
}

void FlightRecorder::Record(const FlightEvent& event) {
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_] = event;
  }
  next_ = (next_ + 1) % capacity_;
  ++recorded_;
}

void FlightRecorder::TripAnomaly(SimTime ts, std::string reason) {
  FlightEvent e;
  e.ts = ts;
  e.type = EventType::kAnomaly;
  e.a = anomalies_.size();
  Record(e);
  anomalies_.push_back(std::move(reason));
  if (!auto_dump_path_.empty()) {
    // Best-effort: an unwritable dump path must not abort the run.
    (void)WriteNdjson(auto_dump_path_);
  }
}

void FlightRecorder::RegisterTypeName(uint32_t type, std::string name) {
  type_names_[type] = std::move(name);
}

size_t FlightRecorder::size() const { return ring_.size(); }

std::vector<FlightEvent> FlightRecorder::Events() const {
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    for (size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

namespace {

void AppendU64(std::string* out, const char* key, uint64_t v,
               bool leading_comma = true) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", leading_comma ? "," : "",
                key, static_cast<unsigned long long>(v));
  *out += buf;
}

}  // namespace

void FlightRecorder::AppendEventJson(std::string* out,
                                     const FlightEvent& e) const {
  *out += "{\"ts\":";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(e.ts));
  *out += buf;
  *out += ",\"type\":\"";
  *out += EventTypeName(e.type);
  *out += '"';
  if (e.node != 0xFFFFFFFF) AppendU64(out, "node", e.node);
  if (e.peer != 0xFFFFFFFF) AppendU64(out, "peer", e.peer);
  if (e.flow != 0) AppendU64(out, "flow", e.flow);
  if (e.msg_type != 0) {
    *out += ",\"msg\":\"";
    AppendJsonEscaped(out, trace::MessageName(type_names_, e.msg_type));
    *out += '"';
  }
  if (e.cause != DropCause::kNone) {
    *out += ",\"cause\":\"";
    *out += DropCauseName(e.cause);
    *out += '"';
  }
  AppendU64(out, "a", e.a);
  AppendU64(out, "b", e.b);
  if (e.type == EventType::kAnomaly && e.a < anomalies_.size()) {
    *out += ",\"reason\":\"";
    AppendJsonEscaped(out, anomalies_[e.a]);
    *out += '"';
  }
  *out += '}';
}

std::string FlightRecorder::ToNdjson() const {
  std::string out;
  out += "{\"flight_recorder\":true";
  AppendU64(&out, "capacity", capacity_);
  AppendU64(&out, "recorded", recorded_);
  AppendU64(&out, "dropped", dropped_events());
  out += ",\"anomalies\":[";
  for (size_t i = 0; i < anomalies_.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    AppendJsonEscaped(&out, anomalies_[i]);
    out += '"';
  }
  out += "]}\n";
  for (const FlightEvent& e : Events()) {
    AppendEventJson(&out, e);
    out += '\n';
  }
  return out;
}

Status FlightRecorder::WriteNdjson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path);
  }
  const std::string dump = ToNdjson();
  const size_t written = std::fwrite(dump.data(), 1, dump.size(), f);
  std::fclose(f);
  if (written != dump.size()) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

}  // namespace bestpeer::obs
