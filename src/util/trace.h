#ifndef BESTPEER_UTIL_TRACE_H_
#define BESTPEER_UTIL_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/ids.h"
#include "util/metrics.h"
#include "util/sim_time.h"
#include "util/status.h"

namespace bestpeer::trace {

/// One interval of time attributed to a node: a message on the wire, a
/// CPU task, or a whole query. `flow` carries the query/agent id so
/// cross-node (and, over TCP, cross-process) spans of one query can be
/// stitched together. Timestamps are whatever clock the recording
/// transport runs on — virtual microseconds in the simulator, reactor
/// monotonic microseconds over TCP.
struct Span {
  std::string name;
  /// Coarse grouping: "net", "cpu", "query", "node".
  std::string cat;
  /// Track the span renders on — the physical node id.
  uint32_t tid = 0;
  /// Start, in microseconds.
  SimTime ts = 0;
  SimTime dur = 0;
  /// Query/agent id tying spans of one logical operation together
  /// (0 = unaffiliated).
  uint64_t flow = 0;
  /// Numeric extras (src, dst, wire bytes, answers, ...).
  std::vector<std::pair<std::string, uint64_t>> args;
};

/// The span name of message `type`: its entry in `names`, or
/// "msg:<8 hex digits>" when it has none. Both transports and the flight
/// recorder name messages this way.
std::string MessageName(const std::map<uint32_t, std::string>& names,
                        uint32_t type);

/// The span of one CPU task, the same on both backends so critical-path
/// analysis and bpstitch read them alike: `name` ran on node `tid` for
/// `dur` µs from `start`, tied to `flow`, with `args` plus "qwait" when
/// the task queued behind earlier ones (`start` > `now`).
Span CpuSpan(const char* name, uint32_t tid, SimTime now, SimTime start,
             SimTime dur, uint64_t flow,
             std::vector<std::pair<std::string, uint64_t>> args);

/// Knobs for a recorder. The defaults reproduce the original simulator
/// behaviour for any realistic run: everything sampled, a ring large
/// enough that sim benches never wrap.
struct TraceRecorderOptions {
  /// Ring capacity in spans. When full, the oldest span is overwritten
  /// and counted in spans_dropped(). Must be >= 1.
  size_t ring_capacity = 1u << 20;
  /// Head-based sampling: the fraction of flows recorded. The decision
  /// is a pure function of the flow id (Mix64 hash against a threshold),
  /// so every process on a query's path reaches the same verdict without
  /// coordination; the BPF1 sampled flag makes it explicit on the wire
  /// for fleets running mixed rates. 1.0 records everything (and spans
  /// with flow 0, which have no hashable identity).
  double sample_rate = 1.0;
  /// Metrics sink (not owned; may be nullptr): trace.spans_recorded,
  /// trace.spans_dropped, trace.flows_sampled.
  metrics::Registry* metrics = nullptr;
};

/// Collects spans into a bounded ring and exports them as Chrome
/// trace_event JSON (loadable in chrome://tracing and Perfetto) or a flat
/// text dump. RecordSpan itself is unconditional; the zero-overhead-when-
/// disabled gate is the owner's nullable recorder pointer (Simulator,
/// TcpOptions) — callers only construct span data after checking
/// `transport.trace() != nullptr`, and sampling callers additionally gate
/// on Sampled(flow). Not thread-safe: the simulator and the TCP reactor
/// each touch their recorder from exactly one thread.
class TraceRecorder {
 public:
  TraceRecorder() : TraceRecorder(TraceRecorderOptions{}) {}
  explicit TraceRecorder(TraceRecorderOptions options);
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void RecordSpan(Span span);

  /// Head-based sampling verdict for `flow`: true when the flow's hash
  /// clears the sample-rate threshold or the flow was force-sampled by a
  /// wire-propagated decision. Remembers every sampled flow (bounded);
  /// `first_sighting`, when non-null, is set to true on the call that
  /// first saw this flow — the hook for the flight-recorder cross-link.
  /// flow 0 has no identity: it is sampled only at rate 1.0.
  bool Sampled(FlowId flow, bool* first_sighting = nullptr);

  /// Marks `flow` sampled regardless of the local rate — the receive
  /// side of the BPF1 sampled flag. Returns true on first sighting.
  bool ForceSample(FlowId flow);

  /// True when the rate samples every flow (the simulator's mode).
  bool sample_all() const { return sample_rate_ >= 1.0; }

  /// Spans currently held, oldest first (copies out of the ring).
  std::vector<Span> Spans() const;

  /// Spans recorded at or after sequence number `since` (sequence =
  /// recorded() at the time the span was added), oldest first. Sets
  /// *next_seq to the sequence to pass next time — the drain cursor the
  /// trace-frame push loop uses to ship each span at most once. Spans
  /// that fell out of the ring before the cursor caught up are simply
  /// absent (they are counted in spans_dropped()).
  std::vector<Span> SpansSince(uint64_t since, uint64_t* next_seq) const;

  /// Visits spans oldest-first without copying.
  template <typename Fn>
  void ForEachSpan(Fn&& fn) const {
    const size_t n = size();
    const size_t start = wrapped() ? next_ : 0;
    for (size_t i = 0; i < n; ++i) {
      fn(spans_[(start + i) % spans_.size()]);
    }
  }

  size_t size() const { return spans_.size(); }
  size_t capacity() const { return capacity_; }
  /// Total spans ever recorded.
  uint64_t recorded() const { return recorded_; }
  /// Spans overwritten by ring overflow.
  uint64_t spans_dropped() const {
    return recorded_ > capacity_ ? recorded_ - capacity_ : 0;
  }
  /// Distinct flows seen sampled (locally decided or force-sampled).
  uint64_t flows_sampled() const { return flows_sampled_.value(); }
  double sample_rate() const { return sample_rate_; }

  /// The sampled flows currently remembered (bounded; newest kept).
  std::vector<FlowId> SampledFlows() const;

  void Clear();

  /// Chrome trace_event JSON: {"traceEvents":[...]} with one complete
  /// ("ph":"X") event per span, ts/dur in microseconds, tid = node.
  std::string ToChromeJson() const;

  /// One line per span: "ts dur node cat name flow args..." — grep-able.
  std::string ToFlatText() const;

  /// Writes ToChromeJson() to `path`.
  Status WriteChromeJson(const std::string& path) const;

 private:
  bool wrapped() const { return recorded_ > capacity_; }
  /// Remembers `flow` in the bounded sampled set; true on insertion.
  bool NoteSampledFlow(FlowId flow);

  size_t capacity_;
  double sample_rate_;
  /// Hash threshold implementing sample_rate_ (flow sampled when
  /// Mix64(flow) <= threshold).
  uint64_t sample_threshold_ = 0;
  std::vector<Span> spans_;  ///< Ring once recorded_ > capacity_.
  size_t next_ = 0;          ///< Ring write cursor.
  uint64_t recorded_ = 0;
  metrics::Counter flows_sampled_;

  /// Flows known sampled: hash-positive flows seen plus force-sampled
  /// ones. Bounded FIFO so a long-lived process cannot grow it forever;
  /// eviction only forgets the first-sighting dedup and (for forced
  /// flows) re-asks the hash, which is harmless at matching rates.
  std::unordered_set<FlowId> sampled_set_;
  std::deque<FlowId> sampled_fifo_;

  metrics::Counter* spans_recorded_c_ = metrics::Counter::Noop();
  metrics::Counter* spans_dropped_c_ = metrics::Counter::Noop();
};

}  // namespace bestpeer::trace

#endif  // BESTPEER_UTIL_TRACE_H_
