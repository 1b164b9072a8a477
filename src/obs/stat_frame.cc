#include "obs/stat_frame.h"

#include "util/json_writer.h"

namespace bestpeer::obs {

namespace {

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("stat frame: " + what);
}

}  // namespace

Status StatFrame::Check() const {
  for (const metrics::SnapshotEntry& e : snapshot.entries) {
    if (e.name.size() > kStatFrameMaxNameLen) {
      return Malformed("name over limit");
    }
    for (const auto& [k, v] : e.labels) {
      if (k.size() > kStatFrameMaxNameLen || v.size() > kStatFrameMaxNameLen) {
        return Malformed("label over limit");
      }
    }
    // A histogram with bucket detail must have bounds+1 buckets; frames
    // without detail carry zero.
    if (!e.buckets.empty() && e.buckets.size() != e.bounds.size() + 1) {
      return Malformed("bucket/bound count mismatch");
    }
  }
  return Status::OK();
}

Bytes EncodeStatFrame(const StatFrame& frame) { return wire::Encode(frame); }

Result<StatFrame> DecodeStatFrame(const Bytes& payload) {
  return wire::Decode<StatFrame>(payload);
}

void FleetCollector::Absorb(StatFrame frame, int64_t received_at_us) {
  ++frames_received_;
  auto it = latest_.find(frame.node);
  if (it != latest_.end() &&
      it->second.frame.sent_at_us > frame.sent_at_us) {
    ++stale_dropped_;
    return;
  }
  NodeState state;
  state.frame = std::move(frame);
  state.received_at_us = received_at_us;
  latest_[state.frame.node] = std::move(state);
}

metrics::Snapshot FleetCollector::Rollup() const {
  metrics::Snapshot merged;
  for (const auto& [node, state] : latest_) {
    merged.Merge(state.frame.snapshot);
  }
  return merged;
}

std::string FleetCollector::ToJson(int64_t now_us) const {
  std::string out = "{\n  \"nodes\": ";
  AppendJsonNumber(&out, static_cast<double>(latest_.size()));
  out += ",\n  \"frames\": ";
  AppendJsonNumber(&out, static_cast<double>(frames_received_));
  out += ",\n  \"stale_dropped\": ";
  AppendJsonNumber(&out, static_cast<double>(stale_dropped_));
  out += ",\n  \"per_node\": {";
  bool first = true;
  for (const auto& [node, state] : latest_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    AppendJsonNumber(&out, static_cast<double>(node));
    out += "\": {\"age_us\": ";
    AppendJsonNumber(&out,
                     static_cast<double>(now_us - state.received_at_us));
    out += ", \"metrics\": ";
    out += state.frame.snapshot.ToJson(4);
    out += '}';
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"merged\": ";
  out += Rollup().ToJson(2);
  out += "\n}\n";
  return out;
}

}  // namespace bestpeer::obs
