#include "obs/trace_frame.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "obs/critical_path.h"
#include "util/json_writer.h"

namespace bestpeer::obs {

namespace {

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("trace frame: " + what);
}

void AppendSpanJson(std::string* out, const trace::Span& s) {
  char buf[96];
  *out += "{\"name\": \"";
  AppendJsonEscaped(out, s.name);
  *out += "\", \"cat\": \"";
  AppendJsonEscaped(out, s.cat);
  std::snprintf(buf, sizeof(buf),
                "\", \"tid\": %u, \"ts\": %" PRId64 ", \"dur\": %" PRId64
                ", \"flow\": %" PRIu64,
                s.tid, s.ts, s.dur, s.flow);
  *out += buf;
  *out += ", \"args\": {";
  bool first = true;
  for (const auto& [key, value] : s.args) {
    if (!first) *out += ", ";
    first = false;
    *out += '"';
    AppendJsonEscaped(out, key);
    std::snprintf(buf, sizeof(buf), "\": %" PRIu64, value);
    *out += buf;
  }
  *out += "}}";
}

void AppendContextJson(std::string* out, const TraceExportContext& ctx) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"mono_us\": %" PRId64 ", \"wall_us\": %" PRId64
                ", \"node_base\": %u, \"local_nodes\": %u",
                ctx.now_us, ctx.wall_us, ctx.node_base, ctx.node_count);
  *out += buf;
}

}  // namespace

Bytes EncodeTraceFrame(const TraceFrame& frame) {
  BinaryWriter w;
  w.WriteU32(kTraceFrameMagic);
  w.WriteU16(kTraceFrameVersion);
  w.WriteU32(frame.node);
  w.WriteI64(frame.sent_at_us);
  w.WriteVarint(frame.spans_dropped);
  w.WriteVarint(frame.spans.size());
  for (const trace::Span& s : frame.spans) {
    w.WriteString(s.name);
    w.WriteString(s.cat);
    w.WriteU32(s.tid);
    w.WriteI64(s.ts);
    w.WriteI64(s.dur);
    w.WriteU64(s.flow);
    w.WriteVarint(s.args.size());
    for (const auto& [key, value] : s.args) {
      w.WriteString(key);
      w.WriteU64(value);
    }
  }
  return w.Take();
}

Result<TraceFrame> DecodeTraceFrame(const Bytes& payload) {
  BinaryReader r(payload);
  auto magic = r.ReadU32();
  if (!magic.ok()) return magic.status();
  if (magic.value() != kTraceFrameMagic) return Malformed("bad magic");
  auto version = r.ReadU16();
  if (!version.ok()) return version.status();
  if (version.value() != kTraceFrameVersion) {
    return Malformed("unknown version");
  }
  TraceFrame frame;
  auto node = r.ReadU32();
  if (!node.ok()) return node.status();
  frame.node = node.value();
  auto sent_at = r.ReadI64();
  if (!sent_at.ok()) return sent_at.status();
  frame.sent_at_us = sent_at.value();
  auto dropped = r.ReadVarint();
  if (!dropped.ok()) return dropped.status();
  frame.spans_dropped = dropped.value();

  auto span_count = r.ReadVarint();
  if (!span_count.ok()) return span_count.status();
  if (span_count.value() > kTraceFrameMaxSpans) {
    return Malformed("span count over limit");
  }
  frame.spans.reserve(span_count.value());
  for (uint64_t i = 0; i < span_count.value(); ++i) {
    trace::Span s;
    auto name = r.ReadString();
    if (!name.ok()) return name.status();
    if (name.value().size() > kTraceFrameMaxNameLen) {
      return Malformed("name over limit");
    }
    s.name = std::move(name).value();
    auto cat = r.ReadString();
    if (!cat.ok()) return cat.status();
    if (cat.value().size() > kTraceFrameMaxNameLen) {
      return Malformed("category over limit");
    }
    s.cat = std::move(cat).value();
    auto tid = r.ReadU32();
    if (!tid.ok()) return tid.status();
    s.tid = tid.value();
    auto ts = r.ReadI64();
    if (!ts.ok()) return ts.status();
    s.ts = ts.value();
    auto dur = r.ReadI64();
    if (!dur.ok()) return dur.status();
    s.dur = dur.value();
    auto flow = r.ReadU64();
    if (!flow.ok()) return flow.status();
    s.flow = flow.value();
    auto arg_count = r.ReadVarint();
    if (!arg_count.ok()) return arg_count.status();
    if (arg_count.value() > kTraceFrameMaxArgs) {
      return Malformed("arg count over limit");
    }
    s.args.reserve(arg_count.value());
    for (uint64_t a = 0; a < arg_count.value(); ++a) {
      auto key = r.ReadString();
      if (!key.ok()) return key.status();
      if (key.value().size() > kTraceFrameMaxNameLen) {
        return Malformed("arg key over limit");
      }
      auto value = r.ReadU64();
      if (!value.ok()) return value.status();
      s.args.emplace_back(std::move(key).value(), value.value());
    }
    frame.spans.push_back(std::move(s));
  }
  if (r.remaining() != 0) return Malformed("trailing bytes");
  return frame;
}

// ---------------------------------------------------------------------------
// TraceCollector

TraceCollector::TraceCollector(size_t max_spans)
    : max_spans_(max_spans == 0 ? 1 : max_spans) {}

void TraceCollector::Absorb(TraceFrame frame, int64_t received_at_us) {
  ++frames_received_;
  // Keep the newest drop report per sender; the counter is cumulative.
  uint64_t& dropped = dropped_by_node_[frame.node];
  dropped = std::max(dropped, frame.spans_dropped);
  const int64_t offset = received_at_us - frame.sent_at_us;
  for (trace::Span& s : frame.spans) {
    if (s.flow == 0) continue;
    s.ts += offset;
    auto [it, inserted] = flows_.try_emplace(s.flow);
    if (inserted) flow_fifo_.push_back(s.flow);
    it->second.push_back(std::move(s));
    ++span_count_;
  }
  while (span_count_ > max_spans_ && flows_.size() > 1) ForgetOldestFlow();
}

void TraceCollector::ForgetOldestFlow() {
  while (!flow_fifo_.empty()) {
    const FlowId victim = flow_fifo_.front();
    flow_fifo_.pop_front();
    auto it = flows_.find(victim);
    if (it == flows_.end()) continue;  // Already evicted.
    span_count_ -= it->second.size();
    flows_.erase(it);
    ++flows_forgotten_;
    return;
  }
}

uint64_t TraceCollector::sender_spans_dropped() const {
  uint64_t sum = 0;
  for (const auto& [node, dropped] : dropped_by_node_) sum += dropped;
  return sum;
}

std::string TraceCollector::ToJson(const TraceExportContext& ctx) const {
  std::string out = "{\n  ";
  AppendContextJson(&out, ctx);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                ",\n  \"frames\": %" PRIu64 ", \"spans\": %zu"
                ", \"sender_spans_dropped\": %" PRIu64
                ", \"flows_forgotten\": %" PRIu64,
                frames_received_, span_count_, sender_spans_dropped(),
                flows_forgotten_);
  out += buf;
  out += ",\n  \"flows\": {";
  bool first_flow = true;
  for (const auto& [flow, spans] : flows_) {
    out += first_flow ? "\n" : ",\n";
    first_flow = false;
    std::snprintf(buf, sizeof(buf), "    \"%" PRIu64 "\": [", flow);
    out += buf;
    for (size_t i = 0; i < spans.size(); ++i) {
      out += i == 0 ? "\n      " : ",\n      ";
      AppendSpanJson(&out, spans[i]);
    }
    out += spans.empty() ? "]" : "\n    ]";
  }
  out += first_flow ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string TraceCollector::FlowJson(const TraceExportContext& ctx,
                                     FlowId flow) const {
  std::string out = "{\n  ";
  AppendContextJson(&out, ctx);
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\n  \"flow\": %" PRIu64, flow);
  out += buf;
  out += ",\n  \"spans\": [";
  auto it = flows_.find(flow);
  const std::vector<trace::Span>* spans =
      it == flows_.end() ? nullptr : &it->second;
  bool has_query_root = false;
  if (spans != nullptr) {
    for (size_t i = 0; i < spans->size(); ++i) {
      out += i == 0 ? "\n    " : ",\n    ";
      AppendSpanJson(&out, (*spans)[i]);
      if ((*spans)[i].cat == "query") has_query_root = true;
    }
    if (!spans->empty()) out += "\n  ";
  }
  out += "]";
  if (has_query_root) {
    // Replay the flow through the critical-path walker for the explain.
    trace::TraceRecorderOptions options;
    options.ring_capacity = std::max<size_t>(spans->size(), 1);
    trace::TraceRecorder replay(options);
    for (const trace::Span& s : *spans) replay.RecordSpan(s);
    out += ",\n  \"explain\": ";
    out += AnalyzeCriticalPaths(replay, nullptr, 1).ToJson(2);
  }
  out += "\n}\n";
  return out;
}

}  // namespace bestpeer::obs
