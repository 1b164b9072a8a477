#include "obs/stat_frame.h"

#include <cstring>

#include "util/json_writer.h"

namespace bestpeer::obs {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("stat frame: " + what);
}

}  // namespace

Bytes EncodeStatFrame(const StatFrame& frame) {
  BinaryWriter w;
  w.WriteU32(kStatFrameMagic);
  w.WriteU16(kStatFrameVersion);
  w.WriteU32(frame.node);
  w.WriteI64(frame.sent_at_us);
  w.WriteVarint(frame.snapshot.entries.size());
  for (const metrics::SnapshotEntry& e : frame.snapshot.entries) {
    w.WriteString(e.name);
    w.WriteU8(static_cast<uint8_t>(e.kind));
    w.WriteVarint(e.labels.size());
    for (const auto& [k, v] : e.labels) {
      w.WriteString(k);
      w.WriteString(v);
    }
    w.WriteU64(DoubleBits(e.value));
    w.WriteVarint(e.count);
    w.WriteU64(DoubleBits(e.min));
    w.WriteU64(DoubleBits(e.max));
    w.WriteVarint(e.bounds.size());
    for (double b : e.bounds) w.WriteU64(DoubleBits(b));
    w.WriteVarint(e.buckets.size());
    for (uint64_t b : e.buckets) w.WriteVarint(b);
  }
  return w.Take();
}

Result<StatFrame> DecodeStatFrame(const Bytes& payload) {
  BinaryReader r(payload);
  auto magic = r.ReadU32();
  if (!magic.ok()) return magic.status();
  if (magic.value() != kStatFrameMagic) return Malformed("bad magic");
  auto version = r.ReadU16();
  if (!version.ok()) return version.status();
  if (version.value() != kStatFrameVersion) {
    return Malformed("unknown version");
  }
  StatFrame frame;
  auto node = r.ReadU32();
  if (!node.ok()) return node.status();
  frame.node = node.value();
  auto sent_at = r.ReadI64();
  if (!sent_at.ok()) return sent_at.status();
  frame.sent_at_us = sent_at.value();

  auto entry_count = r.ReadVarint();
  if (!entry_count.ok()) return entry_count.status();
  if (entry_count.value() > kStatFrameMaxEntries) {
    return Malformed("entry count over limit");
  }
  frame.snapshot.entries.reserve(entry_count.value());
  for (uint64_t i = 0; i < entry_count.value(); ++i) {
    metrics::SnapshotEntry e;
    auto name = r.ReadString();
    if (!name.ok()) return name.status();
    if (name.value().size() > kStatFrameMaxNameLen) {
      return Malformed("name over limit");
    }
    e.name = std::move(name).value();
    auto kind = r.ReadU8();
    if (!kind.ok()) return kind.status();
    if (kind.value() >
        static_cast<uint8_t>(metrics::InstrumentKind::kHistogram)) {
      return Malformed("unknown instrument kind");
    }
    e.kind = static_cast<metrics::InstrumentKind>(kind.value());
    auto label_count = r.ReadVarint();
    if (!label_count.ok()) return label_count.status();
    if (label_count.value() > kStatFrameMaxLabels) {
      return Malformed("label count over limit");
    }
    for (uint64_t l = 0; l < label_count.value(); ++l) {
      auto k = r.ReadString();
      if (!k.ok()) return k.status();
      auto v = r.ReadString();
      if (!v.ok()) return v.status();
      if (k.value().size() > kStatFrameMaxNameLen ||
          v.value().size() > kStatFrameMaxNameLen) {
        return Malformed("label over limit");
      }
      e.labels.emplace_back(std::move(k).value(), std::move(v).value());
    }
    auto value = r.ReadU64();
    if (!value.ok()) return value.status();
    e.value = BitsDouble(value.value());
    auto count = r.ReadVarint();
    if (!count.ok()) return count.status();
    e.count = count.value();
    auto min = r.ReadU64();
    if (!min.ok()) return min.status();
    e.min = BitsDouble(min.value());
    auto max = r.ReadU64();
    if (!max.ok()) return max.status();
    e.max = BitsDouble(max.value());
    auto bound_count = r.ReadVarint();
    if (!bound_count.ok()) return bound_count.status();
    if (bound_count.value() > kStatFrameMaxBuckets) {
      return Malformed("bound count over limit");
    }
    e.bounds.reserve(bound_count.value());
    for (uint64_t b = 0; b < bound_count.value(); ++b) {
      auto bound = r.ReadU64();
      if (!bound.ok()) return bound.status();
      e.bounds.push_back(BitsDouble(bound.value()));
    }
    auto bucket_count = r.ReadVarint();
    if (!bucket_count.ok()) return bucket_count.status();
    if (bucket_count.value() > kStatFrameMaxBuckets + 1) {
      return Malformed("bucket count over limit");
    }
    // A histogram with bucket detail must have bounds+1 buckets; frames
    // without detail carry zero of both.
    if (bucket_count.value() != 0 &&
        bucket_count.value() != bound_count.value() + 1) {
      return Malformed("bucket/bound count mismatch");
    }
    e.buckets.reserve(bucket_count.value());
    for (uint64_t b = 0; b < bucket_count.value(); ++b) {
      auto bucket = r.ReadVarint();
      if (!bucket.ok()) return bucket.status();
      e.buckets.push_back(bucket.value());
    }
    frame.snapshot.entries.push_back(std::move(e));
  }
  if (r.remaining() != 0) return Malformed("trailing bytes");
  return frame;
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
