#include "util/trace.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

#include "util/hash.h"
#include "util/json_writer.h"

namespace bestpeer::trace {

namespace {

/// Bound on the remembered-sampled-flow set; far above any realistic
/// number of concurrently live queries.
constexpr size_t kMaxRememberedFlows = 8192;

}  // namespace

std::string MessageName(const std::map<uint32_t, std::string>& names,
                        uint32_t type) {
  auto it = names.find(type);
  if (it != names.end()) return it->second;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "msg:%08x", type);
  return buf;
}

Span CpuSpan(const char* name, uint32_t tid, SimTime now, SimTime start,
             SimTime dur, uint64_t flow,
             std::vector<std::pair<std::string, uint64_t>> args) {
  Span span;
  span.name = name;
  span.cat = "cpu";
  span.tid = tid;
  span.ts = start;
  span.dur = dur;
  span.flow = flow;
  span.args = std::move(args);
  if (start > now) {
    span.args.emplace_back("qwait", static_cast<uint64_t>(start - now));
  }
  return span;
}

TraceRecorder::TraceRecorder(TraceRecorderOptions options)
    : capacity_(options.ring_capacity == 0 ? 1 : options.ring_capacity),
      sample_rate_(options.sample_rate) {
  if (sample_rate_ < 0) sample_rate_ = 0;
  if (sample_rate_ >= 1.0) {
    sample_rate_ = 1.0;
    sample_threshold_ = UINT64_MAX;
  } else {
    // The largest exactly-representable scale keeps the threshold a pure
    // function of the rate on every platform.
    sample_threshold_ = static_cast<uint64_t>(
        std::ldexp(sample_rate_, 64 - 11) ) << 11;
  }
  if (options.metrics != nullptr) {
    spans_recorded_c_ = options.metrics->GetCounter("trace.spans_recorded");
    spans_dropped_c_ = options.metrics->GetCounter("trace.spans_dropped");
    flows_sampled_.set_total(
        options.metrics->GetCounter("trace.flows_sampled"));
  }
}

void TraceRecorder::RecordSpan(Span span) {
  spans_recorded_c_->Increment();
  if (spans_.size() < capacity_) {
    spans_.push_back(std::move(span));
    next_ = spans_.size() % capacity_;
  } else {
    spans_[next_] = std::move(span);
    next_ = (next_ + 1) % capacity_;
    spans_dropped_c_->Increment();
  }
  ++recorded_;
}

bool TraceRecorder::NoteSampledFlow(FlowId flow) {
  if (!sampled_set_.insert(flow).second) return false;
  sampled_fifo_.push_back(flow);
  if (sampled_fifo_.size() > kMaxRememberedFlows) {
    sampled_set_.erase(sampled_fifo_.front());
    sampled_fifo_.pop_front();
  }
  flows_sampled_.Increment();
  return true;
}

bool TraceRecorder::Sampled(FlowId flow, bool* first_sighting) {
  if (first_sighting != nullptr) *first_sighting = false;
  if (flow == 0) return sample_rate_ >= 1.0;
  bool verdict = sampled_set_.count(flow) != 0;
  if (!verdict && Mix64(flow) <= sample_threshold_) verdict = true;
  if (verdict) {
    const bool first = NoteSampledFlow(flow);
    if (first_sighting != nullptr) *first_sighting = first;
  }
  return verdict;
}

bool TraceRecorder::ForceSample(FlowId flow) {
  if (flow == 0) return false;
  return NoteSampledFlow(flow);
}

std::vector<Span> TraceRecorder::Spans() const {
  std::vector<Span> out;
  out.reserve(size());
  ForEachSpan([&out](const Span& s) { out.push_back(s); });
  return out;
}

std::vector<Span> TraceRecorder::SpansSince(uint64_t since,
                                            uint64_t* next_seq) const {
  // Sequence of the oldest span still in the ring.
  const uint64_t oldest = recorded_ - size();
  const uint64_t from = since < oldest ? oldest : since;
  std::vector<Span> out;
  if (from < recorded_) {
    out.reserve(static_cast<size_t>(recorded_ - from));
    const size_t start = wrapped() ? next_ : 0;
    for (uint64_t seq = from; seq < recorded_; ++seq) {
      const size_t idx =
          (start + static_cast<size_t>(seq - oldest)) % spans_.size();
      out.push_back(spans_[idx]);
    }
  }
  if (next_seq != nullptr) *next_seq = recorded_;
  return out;
}

std::vector<FlowId> TraceRecorder::SampledFlows() const {
  return {sampled_fifo_.begin(), sampled_fifo_.end()};
}

void TraceRecorder::Clear() {
  spans_.clear();
  next_ = 0;
  recorded_ = 0;
}

std::string TraceRecorder::ToChromeJson() const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char buf[128];
  bool first = true;
  ForEachSpan([&](const Span& s) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"name\": \"";
    AppendJsonEscaped(&out, s.name);
    out += "\", \"cat\": \"";
    AppendJsonEscaped(&out, s.cat);
    out += "\", \"ph\": \"X\", \"pid\": 1";
    std::snprintf(buf, sizeof(buf),
                  ", \"tid\": %u, \"ts\": %" PRId64 ", \"dur\": %" PRId64,
                  s.tid, s.ts, s.dur);
    out += buf;
    out += ", \"args\": {";
    std::snprintf(buf, sizeof(buf), "\"flow\": %" PRIu64, s.flow);
    out += buf;
    for (const auto& [key, value] : s.args) {
      out += ", \"";
      AppendJsonEscaped(&out, key);
      std::snprintf(buf, sizeof(buf), "\": %" PRIu64, value);
      out += buf;
    }
    out += "}}";
  });
  out += "\n]}\n";
  return out;
}

std::string TraceRecorder::ToFlatText() const {
  std::string out;
  char buf[160];
  ForEachSpan([&](const Span& s) {
    std::snprintf(buf, sizeof(buf),
                  "%12" PRId64 " %10" PRId64 " node=%-4u %-6s %-20s flow=%" PRIu64,
                  s.ts, s.dur, s.tid, s.cat.c_str(), s.name.c_str(), s.flow);
    out += buf;
    for (const auto& [key, value] : s.args) {
      std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, key.c_str(), value);
      out += buf;
    }
    out += '\n';
  });
  return out;
}

Status TraceRecorder::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open trace output: " + path);
  }
  const std::string json = ToChromeJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::IoError("short write to trace output: " + path);
  }
  return Status::OK();
}

}  // namespace bestpeer::trace
