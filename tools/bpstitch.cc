// bpstitch: stitches the distributed traces of a bestpeerd fleet into
// per-flow Perfetto files. Scrapes /traces from every process's telemetry
// endpoint, reconciles their clocks (each export carries a matching
// monotonic/wall timestamp pair), dedups spans by the exporter's local
// node-id range (every span is taken only from the process that recorded
// it), and writes one Chrome trace_event JSON per flow — loadable in
// ui.perfetto.dev or chrome://tracing. For flows that carry a root
// "query" span it also prints a critical-path explain: where every
// microsecond of the query's latency went, via the same
// AnalyzeCriticalPaths walker the simulator benches use.
//
//   bpstitch --out=traces 127.0.0.1:24090 127.0.0.1:24091
//   bpstitch --out=traces --flow=4294967297 127.0.0.1:24090
//
// Exit 0 when every scrape succeeded and at least one flow was written.

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/critical_path.h"
#include "obs/json_reader.h"
#include "obs/telemetry_server.h"
#include "util/json_writer.h"
#include "util/trace.h"

namespace {

using namespace bestpeer;  // NOLINT: small tool binary.

struct Flags {
  std::string out = "traces";
  uint64_t flow = 0;  ///< 0 = every flow the fleet collected.
  size_t top = 3;     ///< Hops printed per explain.
  std::vector<std::string> addrs;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--out=DIR] [--flow=K] [--top=N] host:port "
               "[host:port ...]\n"
               "scrapes /traces from each bestpeerd telemetry endpoint and "
               "writes one\nPerfetto trace_event JSON per flow to DIR, plus "
               "a critical-path explain.\n",
               argv0);
  return 2;
}

/// One process's export: who it is, its clock anchor, and its spans.
struct ProcessTrace {
  std::string addr;
  uint32_t node_base = 0;
  uint32_t local_nodes = 0;
  /// Adding this to a span ts puts it on the shared wall clock.
  int64_t wall_offset_us = 0;
  std::map<uint64_t, std::vector<trace::Span>> flows;
};

uint64_t ArgOf(const trace::Span& s, const char* key) {
  for (const auto& [k, v] : s.args) {
    if (k == key) return v;
  }
  return 0;
}

/// Parses one /traces document. Numbers arrive as doubles; every id this
/// tool handles (node ids, µs timestamps, flow sequence numbers) is far
/// below 2^53, so the round trip is exact.
bool ParseProcess(const std::string& addr, const obs::JsonValue& doc,
                  ProcessTrace* out) {
  const obs::JsonValue* mono = doc.Find("mono_us");
  const obs::JsonValue* wall = doc.Find("wall_us");
  const obs::JsonValue* base = doc.Find("node_base");
  const obs::JsonValue* count = doc.Find("local_nodes");
  const obs::JsonValue* flows = doc.Find("flows");
  if (mono == nullptr || wall == nullptr || base == nullptr ||
      count == nullptr || flows == nullptr || !flows->is_object()) {
    return false;
  }
  out->addr = addr;
  out->node_base = static_cast<uint32_t>(base->AsNumber());
  out->local_nodes = static_cast<uint32_t>(count->AsNumber());
  out->wall_offset_us = static_cast<int64_t>(wall->AsNumber()) -
                        static_cast<int64_t>(mono->AsNumber());
  for (const auto& [flow_key, span_list] : flows->AsObject()) {
    if (!span_list.is_array()) continue;
    const uint64_t flow = std::strtoull(flow_key.c_str(), nullptr, 10);
    if (flow == 0) continue;
    std::vector<trace::Span>& spans = out->flows[flow];
    for (const obs::JsonValue& sj : span_list.AsArray()) {
      trace::Span s;
      if (const obs::JsonValue* v = sj.Find("name")) s.name = v->AsString();
      if (const obs::JsonValue* v = sj.Find("cat")) s.cat = v->AsString();
      if (const obs::JsonValue* v = sj.Find("tid")) {
        s.tid = static_cast<uint32_t>(v->AsNumber());
      }
      if (const obs::JsonValue* v = sj.Find("ts")) {
        s.ts = static_cast<int64_t>(v->AsNumber());
      }
      if (const obs::JsonValue* v = sj.Find("dur")) {
        s.dur = static_cast<int64_t>(v->AsNumber());
      }
      s.flow = flow;
      if (const obs::JsonValue* args = sj.Find("args");
          args != nullptr && args->is_object()) {
        for (const auto& [k, v] : args->AsObject()) {
          if (v.is_number()) {
            s.args.emplace_back(k, static_cast<uint64_t>(v.AsNumber()));
          }
        }
      }
      spans.push_back(std::move(s));
    }
  }
  return true;
}

/// True when `tid` is one of the exporter's own nodes — the dedup rule:
/// every span was recorded by exactly one process, and that process's
/// export is the authoritative copy.
bool OwnsSpan(const ProcessTrace& p, uint32_t tid) {
  return tid >= p.node_base && tid < p.node_base + p.local_nodes;
}

std::string ChromeJson(const std::vector<trace::Span>& spans) {
  std::string out = "{\"traceEvents\": [";
  char buf[128];
  for (size_t i = 0; i < spans.size(); ++i) {
    const trace::Span& s = spans[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"name\": \"";
    AppendJsonEscaped(&out, s.name);
    out += "\", \"cat\": \"";
    AppendJsonEscaped(&out, s.cat);
    std::snprintf(buf, sizeof(buf),
                  "\", \"ph\": \"X\", \"pid\": 0, \"tid\": %u, \"ts\": %" PRId64
                  ", \"dur\": %" PRId64,
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
  }
  out += spans.empty() ? "]}\n" : "\n]}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      flags.out = arg + 6;
    } else if (std::strncmp(arg, "--flow=", 7) == 0) {
      flags.flow = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--top=", 6) == 0) {
      long v = std::atol(arg + 6);
      if (v > 0) flags.top = static_cast<size_t>(v);
    } else if (arg[0] == '-') {
      return Usage(argv[0]);
    } else {
      flags.addrs.push_back(arg);
    }
  }
  if (flags.addrs.empty()) return Usage(argv[0]);
  if (mkdir(flags.out.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "bpstitch: mkdir %s: %s\n", flags.out.c_str(),
                 std::strerror(errno));
    return 1;
  }

  // Scrape every process. A fleet with an unreachable member yields a
  // partial trace, which is worse than no trace — fail loudly instead.
  std::vector<ProcessTrace> processes;
  for (const std::string& addr : flags.addrs) {
    std::string host;
    uint16_t port = 0;
    Status st = obs::ParseHostPort(addr, &host, &port);
    if (!st.ok()) {
      std::fprintf(stderr, "bpstitch: %s: %s\n", addr.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    auto r = obs::HttpGet(host, port, "/traces");
    if (!r.ok() || r.value().status != 200) {
      std::fprintf(stderr, "bpstitch: %s/traces unreachable (%s)\n",
                   addr.c_str(),
                   r.ok() ? "non-200" : r.status().ToString().c_str());
      return 1;
    }
    auto doc = obs::ParseJson(r.value().body);
    if (!doc.ok()) {
      std::fprintf(stderr, "bpstitch: %s/traces: %s\n", addr.c_str(),
                   doc.status().ToString().c_str());
      return 1;
    }
    ProcessTrace p;
    if (!ParseProcess(addr, doc.value(), &p)) {
      std::fprintf(stderr, "bpstitch: %s/traces: not a trace export\n",
                   addr.c_str());
      return 1;
    }
    std::printf("bpstitch: %s node_base=%u local_nodes=%u flows=%zu\n",
                addr.c_str(), p.node_base, p.local_nodes, p.flows.size());
    processes.push_back(std::move(p));
  }

  // Merge: per flow, take each process's own spans shifted onto the wall
  // clock. The driver's collector also holds copies of follower spans
  // (shipped as trace frames); the ownership rule drops those duplicates.
  std::map<uint64_t, std::vector<trace::Span>> merged;
  for (const ProcessTrace& p : processes) {
    for (const auto& [flow, spans] : p.flows) {
      if (flags.flow != 0 && flow != flags.flow) continue;
      std::vector<trace::Span>& out = merged[flow];
      for (const trace::Span& s : spans) {
        if (!OwnsSpan(p, s.tid)) continue;
        trace::Span shifted = s;
        shifted.ts += p.wall_offset_us;
        out.push_back(std::move(shifted));
      }
    }
  }

  // Cross-process receive spans are point events on the receiver's clock
  // (the sender's timestamp came from another monotonic clock). Now that
  // both ends sit on the wall clock, stretch them back over the wire
  // interval using the sent_us arg so the gap reads as transmission, not
  // mystery.
  for (auto& [flow, spans] : merged) {
    for (trace::Span& s : spans) {
      if (s.cat != "net" || s.dur != 0) continue;
      const uint64_t sent_us = ArgOf(s, "sent_us");
      if (sent_us == 0) continue;
      const uint32_t src = static_cast<uint32_t>(ArgOf(s, "src"));
      for (const ProcessTrace& p : processes) {
        if (!OwnsSpan(p, src)) continue;
        const int64_t sent_wall =
            static_cast<int64_t>(sent_us) + p.wall_offset_us;
        if (sent_wall < s.ts) {
          s.dur = s.ts - sent_wall;
          s.ts = sent_wall;
        }
        break;
      }
    }
  }

  int written = 0;
  for (auto& [flow, spans] : merged) {
    if (spans.empty()) continue;
    // Normalize the flow to t=0 — Perfetto is happier and the explain's
    // microsecond arithmetic stays far from overflow.
    int64_t min_ts = spans.front().ts;
    for (const trace::Span& s : spans) min_ts = std::min(min_ts, s.ts);
    std::sort(spans.begin(), spans.end(),
              [](const trace::Span& a, const trace::Span& b) {
                return a.ts < b.ts;
              });
    bool has_root = false;
    for (trace::Span& s : spans) {
      s.ts -= min_ts;
      if (s.cat == "query") has_root = true;
    }

    char path[512];
    std::snprintf(path, sizeof(path), "%s/flow_%" PRIu64 ".json",
                  flags.out.c_str(), flow);
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bpstitch: %s: %s\n", path, std::strerror(errno));
      return 1;
    }
    const std::string json = ChromeJson(spans);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    ++written;

    uint32_t procs = 0;
    for (const ProcessTrace& p : processes) {
      for (const trace::Span& s : spans) {
        if (OwnsSpan(p, s.tid)) {
          ++procs;
          break;
        }
      }
    }
    std::printf("flow %" PRIu64 ": %zu spans from %u process%s -> %s\n",
                flow, spans.size(), procs, procs == 1 ? "" : "es", path);

    if (!has_root) continue;
    // Replay through the simulator's critical-path walker: same spans,
    // same component attribution as the BENCH_*.json explain sections.
    trace::TraceRecorderOptions opts;
    opts.ring_capacity = std::max<size_t>(spans.size(), 1);
    trace::TraceRecorder replay(opts);
    for (const trace::Span& s : spans) replay.RecordSpan(s);
    obs::CriticalPathReport report =
        obs::AnalyzeCriticalPaths(replay, nullptr, flags.top);
    for (const obs::QueryBreakdown& q : report.queries) {
      std::printf("  explain: total=%" PRId64 "us", q.total);
      for (size_t c = 0; c < obs::kPathComponentCount; ++c) {
        if (q.components[c] == 0) continue;
        std::printf(" %s=%" PRId64 "us",
                    std::string(obs::PathComponentName(
                                    static_cast<obs::PathComponent>(c)))
                        .c_str(),
                    q.components[c]);
      }
      std::printf("\n");
      const size_t hop_count = std::min(q.hops.size(), flags.top);
      for (size_t h = 0; h < hop_count; ++h) {
        const obs::PathHop& hop = q.hops[q.hops.size() - hop_count + h];
        std::printf("    %s on node %u: +%" PRId64 "us (%s)\n",
                    hop.name.c_str(), hop.node, hop.dur,
                    std::string(obs::PathComponentName(hop.component))
                        .c_str());
      }
    }
  }

  if (written == 0) {
    std::fprintf(stderr, "bpstitch: no flows collected%s\n",
                 flags.flow != 0 ? " matching --flow" : "");
    return 1;
  }
  std::printf("bpstitch: wrote %d flow trace%s to %s/\n", written,
              written == 1 ? "" : "s", flags.out.c_str());
  return 0;
}
