#ifndef BESTPEER_OBS_TRACE_FRAME_H_
#define BESTPEER_OBS_TRACE_FRAME_H_

#include <concepts>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"
#include "util/status.h"
#include "util/trace.h"
#include "util/wire.h"

namespace bestpeer::obs {

/// Message type tag for trace span shipping: every process in a fleet
/// periodically drains its TraceRecorder (SpansSince cursor) and pushes
/// the new spans to the collector process, which groups them by flow and
/// serves `/traces` and `/trace?flow=K`. Travels over any net::Transport
/// like stat frames do (one BPF1 frame on the TCP backend).
constexpr uint32_t kTraceFrameMsgType = 0x42530002;  // "BS" + 2.

/// Payload format version (first field after the magic).
constexpr uint16_t kTraceFrameVersion = 1;
constexpr uint32_t kTraceFrameMagic = 0x31545042;  // "BPT1" in LE order.

/// Decode-side hard limits: a length field beyond these is treated as
/// corruption, not an allocation request (mirrors net::FrameDecoder).
constexpr size_t kTraceFrameMaxSpans = 4096;
constexpr size_t kTraceFrameMaxArgs = 16;
constexpr size_t kTraceFrameMaxNameLen = 256;

}  // namespace bestpeer::obs

namespace bestpeer::trace {

/// Wire layout of one span inside a trace frame (found by util/wire.h
/// through argument-dependent lookup).
template <typename S>
  requires std::same_as<std::remove_const_t<S>, Span>
Status Wire(S& s, auto& io) {
  return io(s.name, s.cat, s.tid, s.ts, s.dur, s.flow,
            wire::Max(s.args, obs::kTraceFrameMaxArgs));
}

}  // namespace bestpeer::trace

namespace bestpeer::obs {

/// One push of spans from one process: who sent it, when on the sender's
/// clock (the collector derives the clock offset from this), how many
/// spans the sender's ring has dropped in total, and the spans
/// themselves with sender-clock timestamps.
struct TraceFrame {
  /// The sending process's first local node id.
  uint32_t node = 0xFFFFFFFF;
  /// Microseconds on the sender's clock when the frame was built.
  int64_t sent_at_us = 0;
  /// The sender's TraceRecorder::spans_dropped() at build time.
  uint64_t spans_dropped = 0;
  std::vector<trace::Span> spans;

  static Status Wire(auto& m, auto& io) {
    return io(wire::Const<uint32_t>{kTraceFrameMagic},
              wire::Const<uint16_t>{kTraceFrameVersion}, m.node, m.sent_at_us,
              wire::Varint(m.spans_dropped),
              wire::Max(m.spans, kTraceFrameMaxSpans));
  }
  /// The name length limit above.
  Status Check() const;
};

/// Serializes a trace frame (magic, version, node, timestamp, drop
/// counter, spans with name/cat/tid/ts/dur/flow/args).
Bytes EncodeTraceFrame(const TraceFrame& frame);

/// Bounds-checked decode (util/wire.h); any truncation, bad
/// magic/version, over-limit length or trailing byte returns an error
/// Status (never UB, never a huge allocation).
Result<TraceFrame> DecodeTraceFrame(const Bytes& payload);

/// Everything the collector's JSON exports need to know about "here and
/// now": the collector clock, the same instant on the wall clock (so
/// bpstitch can reconcile processes with independent monotonic clocks),
/// and which node ids live in this process (so bpstitch can take each
/// span from exactly the process that recorded it).
struct TraceExportContext {
  int64_t now_us = 0;
  int64_t wall_us = 0;
  uint32_t node_base = 0;
  uint32_t node_count = 0;
};

/// Collector-side state for distributed traces: absorbs pushed frames
/// (shifting sender-clock timestamps onto the collector clock via the
/// push timestamp), groups spans by flow, and serves them as JSON.
/// Bounded: when the total span count exceeds the budget, whole oldest
/// flows are forgotten and counted. Single-threaded like everything else
/// on the reactor.
class TraceCollector {
 public:
  explicit TraceCollector(size_t max_spans = 1u << 20);

  /// Ingests one frame received at `received_at_us` on the collector
  /// clock. Every span's ts is shifted by (received_at_us - sent_at_us),
  /// so spans from remote clocks land on the collector's timeline (the
  /// shift is zero when a process drains its own recorder). Flow-0 spans
  /// are not collected — they cannot be stitched to a query.
  void Absorb(TraceFrame frame, int64_t received_at_us);

  /// `/traces`: every collected flow with full span detail, plus the
  /// export context and collector counters.
  std::string ToJson(const TraceExportContext& ctx) const;

  /// `/trace?flow=K`: one flow's spans plus — when the flow has a root
  /// "query" span — a critical-path explain of where its time went.
  /// Unknown flows yield {"flow": K, "spans": []}.
  std::string FlowJson(const TraceExportContext& ctx,
                       FlowId flow) const;

  size_t flow_count() const { return flows_.size(); }
  size_t span_count() const { return span_count_; }
  uint64_t frames_received() const { return frames_received_; }
  /// Sum over senders of their ring-drop counters (latest report each).
  uint64_t sender_spans_dropped() const;
  /// Flows evicted here to stay under the span budget.
  uint64_t flows_forgotten() const { return flows_forgotten_; }

 private:
  void ForgetOldestFlow();

  size_t max_spans_;
  std::map<FlowId, std::vector<trace::Span>> flows_;
  /// Flows in first-seen order — the eviction queue.
  std::deque<FlowId> flow_fifo_;
  size_t span_count_ = 0;
  uint64_t frames_received_ = 0;
  uint64_t flows_forgotten_ = 0;
  std::map<uint32_t, uint64_t> dropped_by_node_;
};

}  // namespace bestpeer::obs

#endif  // BESTPEER_OBS_TRACE_FRAME_H_
