#include "obs/critical_path.h"

#include <algorithm>
#include <map>

#include "util/json_writer.h"
#include "util/stats.h"

namespace bestpeer::obs {

std::string_view PathComponentName(PathComponent c) {
  switch (c) {
    case PathComponent::kUplinkQueue:
      return "uplink_queue";
    case PathComponent::kWire:
      return "wire";
    case PathComponent::kDownlinkQueue:
      return "downlink_queue";
    case PathComponent::kCpuQueue:
      return "cpu_queue";
    case PathComponent::kScan:
      return "scan";
    case PathComponent::kAgentOverhead:
      return "agent_overhead";
    case PathComponent::kHandling:
      return "handling";
    case PathComponent::kOther:
      return "other";
  }
  return "unknown";
}

SimTime QueryBreakdown::ComponentSum() const {
  SimTime sum = 0;
  for (SimTime c : components) sum += c;
  return sum;
}

namespace {

uint64_t ArgOf(const trace::Span& span, std::string_view key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return v;
  }
  return 0;
}

/// The component a CPU span's busy time belongs to (net spans are split
/// by their queue args instead).
PathComponent ClassifyCpu(const std::string& name) {
  if (name == "agent.forward") return PathComponent::kAgentOverhead;
  if (name == "result.handle") return PathComponent::kHandling;
  if (name.find("scan") != std::string::npos ||
      name.find("serve") != std::string::npos ||
      name == "agent.execute") {
    return PathComponent::kScan;
  }
  return PathComponent::kHandling;
}

bool HasArg(const trace::Span& span, std::string_view key) {
  for (const auto& arg : span.args) {
    if (arg.first == key) return true;
  }
  return false;
}

/// The measured cpu span at net span `net`'s sender that covers the send
/// at `sent`, or nullptr (none, or the sender's spans are simulated).
/// Over TCP a task's `done` sends before its span ends, so the latest span
/// ending before the message left is not the one that sent it; of the
/// sender's spans covering the send, the one ending first ran the send
/// (their `done`s run one after another on one thread).
const trace::Span* MeasuredSender(
    const std::vector<const trace::Span*>& spans, const trace::Span& net,
    SimTime sent) {
  if (!HasArg(net, "src")) return nullptr;
  const uint64_t src = ArgOf(net, "src");
  const trace::Span* best = nullptr;
  for (const trace::Span* s : spans) {
    if (s->cat != "cpu" || s->tid != src || !HasArg(*s, "model_us")) continue;
    if (s->ts > sent || s->ts + s->dur < sent) continue;
    if (best == nullptr || s->ts + s->dur < best->ts + best->dur) best = s;
  }
  return best;
}

struct Walker {
  QueryBreakdown* out;
  SimTime t0;

  void Attribute(PathComponent c, SimTime amount) {
    if (amount <= 0) return;
    out->components[static_cast<size_t>(c)] += amount;
  }

  /// Attributes one chained span's interval [seg_start, seg_end] and
  /// returns the new walk cursor (seg_start, or earlier when the span
  /// queued for a CPU first).
  SimTime Consume(const trace::Span& s, SimTime seg_start, SimTime seg_end) {
    const SimTime seg = seg_end - seg_start;
    PathHop hop;
    hop.name = s.name;
    hop.node = s.tid;
    hop.start = seg_start;
    hop.dur = seg;
    if (s.cat == "net") {
      SimTime up = static_cast<SimTime>(ArgOf(s, "up_wait"));
      SimTime rx = static_cast<SimTime>(ArgOf(s, "rx_wait"));
      up = std::min(up, seg);
      rx = std::min(rx, seg - up);
      Attribute(PathComponent::kUplinkQueue, up);
      Attribute(PathComponent::kDownlinkQueue, rx);
      Attribute(PathComponent::kWire, seg - up - rx);
      hop.component = PathComponent::kWire;
      out->hops.push_back(std::move(hop));
      return seg_start;
    }
    // CPU span. A simulated agent.execute carries its modelled setup/scan
    // split; everything else lands whole in its classified bucket. A TCP
    // span measured host time, which has no such split: it names the
    // model's figures model_setup/model_scan, so it lands whole in scan.
    PathComponent main = ClassifyCpu(s.name);
    if (s.name == "agent.execute") {
      SimTime setup = static_cast<SimTime>(ArgOf(s, "setup"));
      setup = std::min(setup, seg);
      Attribute(PathComponent::kAgentOverhead, setup);
      Attribute(PathComponent::kScan, seg - setup);
    } else {
      Attribute(main, seg);
    }
    hop.component = main;
    out->hops.push_back(std::move(hop));
    // Time the task spent queued for a free CPU thread extends the chain
    // backwards past the span's start.
    SimTime qwait = static_cast<SimTime>(ArgOf(s, "qwait"));
    if (qwait > 0) {
      SimTime qstart = seg_start - qwait;
      if (qstart < t0) qstart = t0;
      Attribute(PathComponent::kCpuQueue, seg_start - qstart);
      return qstart;
    }
    return seg_start;
  }
};

}  // namespace

CriticalPathReport AnalyzeCriticalPaths(const trace::TraceRecorder& trace,
                                        const FlightRecorder* recorder,
                                        size_t top_k) {
  CriticalPathReport report;

  // Group flow spans; query spans are the roots.
  std::map<uint64_t, std::vector<const trace::Span*>> by_flow;
  std::vector<const trace::Span*> roots;
  trace.ForEachSpan([&](const trace::Span& s) {
    if (s.cat == "query") {
      roots.push_back(&s);
    } else if (s.flow != 0) {
      by_flow[s.flow].push_back(&s);
    }
  });

  std::map<uint64_t, uint64_t> drops_by_flow;
  if (recorder != nullptr) {
    for (const FlightEvent& e : recorder->Events()) {
      if (e.type == EventType::kMsgDrop && e.flow != 0) {
        ++drops_by_flow[e.flow];
      }
    }
  }

  for (const trace::Span* root : roots) {
    QueryBreakdown q;
    q.flow = root->flow;
    q.base_node = root->tid;
    q.start = root->ts;
    q.total = root->dur;

    const SimTime t0 = root->ts;
    const SimTime t_end = root->ts + root->dur;
    auto it = by_flow.find(root->flow);
    std::vector<const trace::Span*> spans =
        it == by_flow.end() ? std::vector<const trace::Span*>{} : it->second;
    // Sorted by end time; the walk consumes them newest-first.
    std::sort(spans.begin(), spans.end(),
              [](const trace::Span* a, const trace::Span* b) {
                if (a->ts + a->dur != b->ts + b->dur) {
                  return a->ts + a->dur < b->ts + b->dur;
                }
                return a->dur < b->dur;
              });

    Walker walker{&q, t0};
    SimTime cur = t_end;
    size_t i = spans.size();
    while (cur > t0) {
      while (i > 0 && spans[i - 1]->ts + spans[i - 1]->dur > cur) --i;
      if (i == 0) {
        walker.Attribute(PathComponent::kOther, cur - t0);
        break;
      }
      const trace::Span* s = spans[--i];
      const SimTime end = s->ts + s->dur;
      if (end <= t0) {
        walker.Attribute(PathComponent::kOther, cur - t0);
        break;
      }
      // Gap between this span's end and the later chain link: time the
      // flow spent outside any instrumented interval.
      walker.Attribute(PathComponent::kOther, cur - end);
      const SimTime seg_start = std::max(s->ts, t0);
      cur = walker.Consume(*s, seg_start, end);
      if (s->cat == "net" && cur > t0) {
        // A measured sender's span is the previous link, up to the send.
        if (const trace::Span* sender = MeasuredSender(spans, *s, cur)) {
          cur = walker.Consume(*sender, std::max(sender->ts, t0), cur);
        }
      }
    }
    std::reverse(q.hops.begin(), q.hops.end());
    auto drop_it = drops_by_flow.find(q.flow);
    q.drops = drop_it == drops_by_flow.end() ? 0 : drop_it->second;
    report.queries.push_back(std::move(q));
  }

  // Aggregates.
  double total_sum = 0;
  std::array<Summary, kPathComponentCount> per_component;
  std::array<double, kPathComponentCount> component_sum{};
  for (const QueryBreakdown& q : report.queries) {
    total_sum += static_cast<double>(q.total);
    for (size_t c = 0; c < kPathComponentCount; ++c) {
      per_component[c].Add(static_cast<double>(q.components[c]));
      component_sum[c] += static_cast<double>(q.components[c]);
    }
  }
  for (size_t c = 0; c < kPathComponentCount; ++c) {
    ComponentStats stats;
    stats.component = static_cast<PathComponent>(c);
    stats.mean_us = per_component[c].mean();
    stats.p50_us = per_component[c].Percentile(50);
    stats.p99_us = per_component[c].Percentile(99);
    stats.share = total_sum > 0 ? component_sum[c] / total_sum : 0;
    report.stats.push_back(stats);
  }

  // Top-k slowest queries.
  std::vector<size_t> order(report.queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&report](size_t a, size_t b) {
    return report.queries[a].total > report.queries[b].total;
  });
  if (order.size() > top_k) order.resize(top_k);
  report.slowest = std::move(order);
  return report;
}

namespace {

void AppendComponentsJson(std::string* out,
                          const std::array<SimTime, kPathComponentCount>& c) {
  *out += '{';
  bool first = true;
  for (size_t i = 0; i < kPathComponentCount; ++i) {
    if (c[i] == 0) continue;
    if (!first) *out += ", ";
    first = false;
    *out += '"';
    *out += PathComponentName(static_cast<PathComponent>(i));
    *out += "\": ";
    AppendJsonNumber(out, static_cast<double>(c[i]));
  }
  *out += '}';
}

}  // namespace

std::string CriticalPathReport::ToJson(int indent) const {
  const std::string pad(static_cast<size_t>(indent), ' ');
  const std::string inner(static_cast<size_t>(indent) + 2, ' ');
  const std::string inner2(static_cast<size_t>(indent) + 4, ' ');
  std::string out = "{\n";
  out += inner + "\"queries\": ";
  AppendJsonNumber(&out, static_cast<double>(queries.size()));
  out += ",\n" + inner + "\"components\": {";
  bool first = true;
  for (const ComponentStats& s : stats) {
    if (s.mean_us == 0 && s.p99_us == 0) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += inner2 + '"';
    out += PathComponentName(s.component);
    out += "\": {\"mean_us\": ";
    AppendJsonNumber(&out, s.mean_us);
    out += ", \"p50_us\": ";
    AppendJsonNumber(&out, s.p50_us);
    out += ", \"p99_us\": ";
    AppendJsonNumber(&out, s.p99_us);
    out += ", \"share\": ";
    AppendJsonNumber(&out, s.share);
    out += '}';
  }
  if (!first) out += "\n" + inner;
  out += "},\n" + inner + "\"top_slowest\": [";
  for (size_t k = 0; k < slowest.size(); ++k) {
    const QueryBreakdown& q = queries[slowest[k]];
    out += k == 0 ? "\n" : ",\n";
    out += inner2 + "{\"flow\": ";
    AppendJsonNumber(&out, static_cast<double>(q.flow));
    out += ", \"node\": ";
    AppendJsonNumber(&out, q.base_node);
    out += ", \"total_us\": ";
    AppendJsonNumber(&out, static_cast<double>(q.total));
    out += ", \"drops\": ";
    AppendJsonNumber(&out, static_cast<double>(q.drops));
    out += ",\n" + inner2 + " \"components\": ";
    AppendComponentsJson(&out, q.components);
    out += ",\n" + inner2 + " \"hops\": [";
    for (size_t h = 0; h < q.hops.size(); ++h) {
      const PathHop& hop = q.hops[h];
      out += h == 0 ? "" : ", ";
      out += "{\"name\": \"";
      AppendJsonEscaped(&out, hop.name);
      out += "\", \"node\": ";
      AppendJsonNumber(&out, hop.node);
      out += ", \"start_us\": ";
      AppendJsonNumber(&out, static_cast<double>(hop.start));
      out += ", \"dur_us\": ";
      AppendJsonNumber(&out, static_cast<double>(hop.dur));
      out += ", \"component\": \"";
      out += PathComponentName(hop.component);
      out += "\"}";
    }
    out += "]}";
  }
  if (!slowest.empty()) out += "\n" + inner;
  out += "]\n" + pad + "}";
  return out;
}

}  // namespace bestpeer::obs
