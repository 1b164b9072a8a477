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

Status TraceFrame::Check() const {
  for (const trace::Span& s : spans) {
    if (s.name.size() > kTraceFrameMaxNameLen) {
      return Malformed("name over limit");
    }
    if (s.cat.size() > kTraceFrameMaxNameLen) {
      return Malformed("category over limit");
    }
    for (const auto& [key, value] : s.args) {
      if (key.size() > kTraceFrameMaxNameLen) {
        return Malformed("arg key over limit");
      }
    }
  }
  return Status::OK();
}

Bytes EncodeTraceFrame(const TraceFrame& frame) { return wire::Encode(frame); }

Result<TraceFrame> DecodeTraceFrame(const Bytes& payload) {
  return wire::Decode<TraceFrame>(payload);
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
