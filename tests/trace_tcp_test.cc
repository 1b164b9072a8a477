// Distributed-tracing tests for the TCP backend: span recording on the
// real reactor (cpu + net spans for sampled flows), the trace-frame codec
// under truncation, the collector's clock reconciliation and flow
// eviction, and the wire propagation of the sampling decision between two
// TcpNets that model two fleet processes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/cost_model.h"
#include "net/tcp_transport.h"
#include "obs/critical_path.h"
#include "obs/flight_recorder.h"
#include "obs/json_reader.h"
#include "obs/trace_frame.h"
#include "util/bytes.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace bestpeer {
namespace {

/// Spins the calling thread for `d` of host time: work a span must measure.
void BusyWait(SimTime d) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(d);
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// The value of `span`'s arg `key`, or nullopt when it has none.
std::optional<uint64_t> ArgOf(const trace::Span& span, const std::string& key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return v;
  }
  return std::nullopt;
}

/// Polls `done_on_reactor` (run on the net's reactor) until it holds.
bool WaitUntil(net::TcpNet* net, const std::function<bool()>& done_on_reactor,
               int budget_ms = 10000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(budget_ms);
  for (;;) {
    bool done = false;
    net->Run([&]() { done = done_on_reactor(); });
    if (done) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// --------------------------------------------------- span recording (TCP)

TEST(TraceTcpTest, RecordsCpuAndNetSpansForSampledFlows) {
  metrics::Registry registry;
  trace::TraceRecorder recorder(
      {.ring_capacity = 1024, .sample_rate = 1.0, .metrics = &registry});
  net::TcpOptions options;
  options.trace = &recorder;
  options.metrics = &registry;
  net::TcpNet tcpnet(options);
  net::TcpTransport* t0 = tcpnet.AddNode().value();
  net::TcpTransport* t1 = tcpnet.AddNode().value();
  EXPECT_EQ(t0->trace(), &recorder);
  t1->RegisterTypeName(0x1234, "test.msg");

  std::atomic<bool> delivered{false};
  t1->SetHandler([&](const net::Message&) { delivered.store(true); });
  tcpnet.Start();

  constexpr FlowId kFlow = 77;
  bool cpu_done = false;
  const SimTime before = tcpnet.reactor().now_us();
  tcpnet.Run([&]() {
    t0->Send(t1->local(), 0x1234, Bytes{1, 2, 3}, /*extra_wire_bytes=*/32,
             kFlow);
    // 2 ms of the submitting callback's own work, then a task whose
    // completion does 1 ms more: the span measures both, not the model.
    BusyWait(Millis(2));
    t0->RunCpu(
        Micros(100),
        [&cpu_done]() {
          BusyWait(Millis(1));
          cpu_done = true;
        },
        "test.cpu", kFlow, {{"setup", 60}, {"scan", 40}});
  });
  ASSERT_TRUE(WaitUntil(&tcpnet, [&]() { return delivered.load(); }));
  ASSERT_TRUE(WaitUntil(&tcpnet, [&]() { return cpu_done; }));
  const SimTime after = tcpnet.reactor().now_us();

  std::vector<trace::Span> spans;
  tcpnet.Run([&]() { spans = recorder.Spans(); });
  tcpnet.Stop();

  const trace::Span* cpu = nullptr;
  const trace::Span* rx = nullptr;
  for (const trace::Span& s : spans) {
    if (s.cat == "cpu" && s.name == "test.cpu") cpu = &s;
    if (s.cat == "net" && s.name == "test.msg") rx = &s;
  }
  ASSERT_NE(cpu, nullptr);
  EXPECT_EQ(cpu->flow, kFlow);
  EXPECT_EQ(cpu->tid, t0->local());
  // Host time, measured: at least the 3 ms of busy work, and inside the
  // wall interval around the Run, queue wait (before ts) included.
  EXPECT_GE(cpu->dur, Millis(3));
  EXPECT_LE(cpu->dur, after - before);
  const SimTime qwait = static_cast<SimTime>(ArgOf(*cpu, "qwait").value_or(0));
  EXPECT_GE(cpu->ts - qwait, before);
  EXPECT_LE(cpu->ts + cpu->dur, after);
  // The model's figures ride beside it, renamed so no reader takes them
  // for host time.
  EXPECT_EQ(ArgOf(*cpu, "model_us"), 100u);
  EXPECT_EQ(ArgOf(*cpu, "model_setup"), 60u);
  EXPECT_EQ(ArgOf(*cpu, "model_scan"), 40u);
  EXPECT_EQ(ArgOf(*cpu, "setup"), std::nullopt);
  EXPECT_EQ(ArgOf(*cpu, "scan"), std::nullopt);
  EXPECT_EQ(cpu->args.size(), qwait > 0 ? 4u : 3u);

  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->flow, kFlow);
  EXPECT_EQ(rx->tid, t1->local());
  // Same process: the receive span covers [sent, received] on the shared
  // reactor clock.
  EXPECT_GE(rx->dur, 0);
  uint64_t wire = 0, src = 0, sent_us = 0;
  for (const auto& [k, v] : rx->args) {
    if (k == "wire") wire = v;
    if (k == "src") src = v;
    if (k == "sent_us") sent_us = v;
  }
  EXPECT_EQ(src, t0->local());
  EXPECT_EQ(wire, net::kFrameOverheadBytes + 3 + 32);
  EXPECT_GT(sent_us, 0u);

  // The recorder surfaced its counters through the shared registry.
  metrics::Snapshot snap = registry.TakeSnapshot();
  EXPECT_GE(snap.Value("trace.spans_recorded"), 2.0);
  EXPECT_GE(snap.Value("trace.flows_sampled"), 1.0);
}

TEST(TraceTcpTest, ExplainTakesMeasuredAgentExecuteAsHostTime) {
  trace::TraceRecorder recorder({.ring_capacity = 64, .sample_rate = 1.0});
  net::TcpOptions options;
  options.trace = &recorder;
  net::TcpNet tcpnet(options);
  net::TcpTransport* t0 = tcpnet.AddNode().value();
  tcpnet.Start();

  // The model charges a class load, a reconstruct and a 1000-object scan
  // (27 ms); the host does about 1 ms of work.
  constexpr FlowId kFlow = 5;
  const SimTime setup = net::kAgentReconstructCost + net::kAgentClassLoadCost;
  const SimTime scan = 1000 * net::kPerObjectMatchCost;
  net::Reactor& reactor = tcpnet.reactor();
  SimTime begin = 0;
  SimTime work = 0;
  bool done = false;
  tcpnet.Run([&]() {
    begin = reactor.callback_start_us();
    BusyWait(Micros(500));
    work = reactor.now_us() - begin;
    t0->RunCpu(
        setup + scan,
        [&]() {
          const SimTime start = reactor.now_us();
          BusyWait(Micros(500));
          work += reactor.now_us() - start;
          done = true;
        },
        "agent.execute", kFlow, {{"setup", setup}, {"scan", scan}});
  });
  ASSERT_TRUE(WaitUntil(&tcpnet, [&]() { return done; }));
  // The query root covers the task, as the issuing node's would.
  tcpnet.Run([&]() {
    trace::Span root;
    root.name = "query";
    root.cat = "query";
    root.ts = begin;
    root.dur = reactor.now_us() - begin;
    root.flow = kFlow;
    recorder.RecordSpan(std::move(root));
  });
  tcpnet.Stop();

  obs::CriticalPathReport report = obs::AnalyzeCriticalPaths(recorder);
  ASSERT_EQ(report.queries.size(), 1u);
  const obs::QueryBreakdown& q = report.queries[0];
  EXPECT_EQ(q.ComponentSum(), q.total);
  ASSERT_EQ(q.hops.size(), 1u);
  EXPECT_EQ(q.hops[0].name, "agent.execute");
  // The modelled 12 ms setup is not host time: no more of the measured
  // span goes to agent overhead than the host spent working.
  auto component = [&q](obs::PathComponent c) {
    return q.components[static_cast<size_t>(c)];
  };
  EXPECT_LE(component(obs::PathComponent::kAgentOverhead), work);
  EXPECT_GE(component(obs::PathComponent::kScan), work);
}

TEST(TraceTcpTest, OffloadedExecuteSpanMeasuresTheWorkersRun) {
  trace::TraceRecorder recorder({.ring_capacity = 64, .sample_rate = 1.0});
  net::TcpOptions options;
  options.trace = &recorder;
  net::TcpNet tcpnet(options);
  net::TcpTransport* t0 = tcpnet.AddNode().value();
  tcpnet.Start();

  // The agent runtime's shape: the delivery offloads the scan, and the
  // continuation submits the execution's cost.
  constexpr FlowId kFlow = 9;
  std::atomic<bool> done{false};
  const SimTime before = tcpnet.reactor().now_us();
  tcpnet.Run([&]() {
    t0->Offload([]() { BusyWait(Millis(2)); },
                [&]() {
                  t0->RunCpu(
                      Millis(19), [&]() { done.store(true); },
                      "agent.execute", kFlow,
                      {{"setup", Millis(4)}, {"scan", Millis(15)}});
                });
  });
  ASSERT_TRUE(WaitUntil(&tcpnet, [&]() { return done.load(); }));
  const SimTime after = tcpnet.reactor().now_us();
  std::vector<trace::Span> spans;
  tcpnet.Run([&]() { spans = recorder.Spans(); });
  tcpnet.Stop();

  const trace::Span* cpu = nullptr;
  for (const trace::Span& s : spans) {
    if (s.cat == "cpu" && s.name == "agent.execute") cpu = &s;
  }
  ASSERT_NE(cpu, nullptr);
  // The worker's 2 ms are work; the waits for a worker and for the reactor
  // are queue wait, and the whole span stays inside the wall interval.
  EXPECT_GE(cpu->dur, Millis(2));
  const SimTime qwait = static_cast<SimTime>(ArgOf(*cpu, "qwait").value_or(0));
  EXPECT_GE(cpu->ts - qwait, before);
  EXPECT_LE(cpu->ts + cpu->dur, after);
  EXPECT_EQ(ArgOf(*cpu, "model_us"), static_cast<uint64_t>(Millis(19)));
}

TEST(TraceTcpTest, UnsampledFlowsRecordNothing) {
  trace::TraceRecorder recorder({.ring_capacity = 64, .sample_rate = 0.0});
  net::TcpOptions options;
  options.trace = &recorder;
  net::TcpNet tcpnet(options);
  net::TcpTransport* t0 = tcpnet.AddNode().value();
  net::TcpTransport* t1 = tcpnet.AddNode().value();

  std::atomic<bool> delivered{false};
  t1->SetHandler([&](const net::Message&) { delivered.store(true); });
  tcpnet.Start();
  bool cpu_done = false;
  tcpnet.Run([&]() {
    t0->Send(t1->local(), 0x42, Bytes{9}, 0, /*flow=*/123);
    t0->RunCpu(Micros(10), [&cpu_done]() { cpu_done = true; }, "quiet.cpu",
               123);
  });
  ASSERT_TRUE(WaitUntil(&tcpnet, [&]() { return delivered.load(); }));
  ASSERT_TRUE(WaitUntil(&tcpnet, [&]() { return cpu_done; }));
  size_t recorded = 0;
  tcpnet.Run([&]() { recorded = recorder.size(); });
  tcpnet.Stop();
  EXPECT_EQ(recorded, 0u);
  EXPECT_EQ(recorder.flows_sampled(), 0u);
}

// ------------------------------------------------------ trace frame codec

obs::TraceFrame DemoFrame() {
  obs::TraceFrame frame;
  frame.node = 5;
  frame.sent_at_us = 123456;
  frame.spans_dropped = 3;
  trace::Span a;
  a.name = "agent.execute";
  a.cat = "cpu";
  a.tid = 6;
  a.ts = 1000;
  a.dur = 250;
  a.flow = 42;
  a.args = {{"qwait", 17}, {"answers", 2}};
  trace::Span b;
  b.name = "search.result";
  b.cat = "net";
  b.tid = 7;
  b.ts = 1300;
  b.dur = 0;
  b.flow = 42;
  b.args = {{"src", 6}, {"dst", 7}, {"wire", 128}, {"sent_us", 999}};
  frame.spans = {a, b};
  return frame;
}

TEST(TraceFrameTest, RoundTrips) {
  obs::TraceFrame frame = DemoFrame();
  Bytes wire = obs::EncodeTraceFrame(frame);
  auto decoded = obs::DecodeTraceFrame(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().node, 5u);
  EXPECT_EQ(decoded.value().sent_at_us, 123456);
  EXPECT_EQ(decoded.value().spans_dropped, 3u);
  ASSERT_EQ(decoded.value().spans.size(), 2u);
  const trace::Span& a = decoded.value().spans[0];
  EXPECT_EQ(a.name, "agent.execute");
  EXPECT_EQ(a.cat, "cpu");
  EXPECT_EQ(a.tid, 6u);
  EXPECT_EQ(a.ts, 1000);
  EXPECT_EQ(a.dur, 250);
  EXPECT_EQ(a.flow, 42u);
  ASSERT_EQ(a.args.size(), 2u);
  EXPECT_EQ(a.args[0].first, "qwait");
  EXPECT_EQ(a.args[0].second, 17u);
  const trace::Span& b = decoded.value().spans[1];
  EXPECT_EQ(b.name, "search.result");
  ASSERT_EQ(b.args.size(), 4u);
  EXPECT_EQ(b.args[3].first, "sent_us");
}

TEST(TraceFrameTest, TruncationAtEveryCutIsAnErrorNotUb) {
  Bytes wire = obs::EncodeTraceFrame(DemoFrame());
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    Bytes prefix(wire.begin(), wire.begin() + static_cast<long>(cut));
    auto r = obs::DecodeTraceFrame(prefix);
    EXPECT_FALSE(r.ok()) << "cut at " << cut << " of " << wire.size();
  }
}

TEST(TraceFrameTest, RejectsBadMagicVersionTrailingAndOverLimits) {
  Bytes wire = obs::EncodeTraceFrame(DemoFrame());

  Bytes bad_magic = wire;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(obs::DecodeTraceFrame(bad_magic).ok());

  Bytes bad_version = wire;
  bad_version[4] ^= 0xFF;
  EXPECT_FALSE(obs::DecodeTraceFrame(bad_version).ok());

  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_FALSE(obs::DecodeTraceFrame(trailing).ok());

  // A span count over the hard limit is corruption, not an allocation.
  obs::TraceFrame huge;
  huge.spans.resize(1);
  Bytes huge_wire = obs::EncodeTraceFrame(huge);
  // Patch the span-count varint (last varint before span data). Easier:
  // build a frame that lies about its count via a legitimate encoder is
  // impossible, so decode a hand-grown one: header + dropped=0 +
  // count=kTraceFrameMaxSpans+1 and nothing else must fail fast.
  BinaryWriter w;
  w.WriteU32(obs::kTraceFrameMagic);
  w.WriteU16(obs::kTraceFrameVersion);
  w.WriteU32(1);
  w.WriteI64(0);
  w.WriteVarint(0);
  w.WriteVarint(obs::kTraceFrameMaxSpans + 1);
  EXPECT_FALSE(obs::DecodeTraceFrame(w.Take()).ok());
}

// --------------------------------------------------------- trace collector

TEST(TraceCollectorTest, ShiftsSenderClocksOntoCollectorClock) {
  obs::TraceCollector collector;
  obs::TraceFrame frame = DemoFrame();  // sent_at_us = 123456, spans @1000+.
  collector.Absorb(frame, /*received_at_us=*/123956);  // Offset +500.
  EXPECT_EQ(collector.frames_received(), 1u);
  EXPECT_EQ(collector.span_count(), 2u);
  EXPECT_EQ(collector.sender_spans_dropped(), 3u);

  obs::TraceExportContext ctx;
  ctx.now_us = 200000;
  ctx.wall_us = 1700000000000000;
  ctx.node_base = 0;
  ctx.node_count = 3;
  auto parsed = obs::ParseJson(collector.ToJson(ctx));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& doc = parsed.value();
  EXPECT_DOUBLE_EQ(doc.Find("mono_us")->AsNumber(), 200000);
  EXPECT_DOUBLE_EQ(doc.Find("local_nodes")->AsNumber(), 3);
  const obs::JsonValue* flows = doc.Find("flows");
  ASSERT_NE(flows, nullptr);
  const obs::JsonValue* flow = flows->Find("42");
  ASSERT_NE(flow, nullptr);
  ASSERT_EQ(flow->AsArray().size(), 2u);
  EXPECT_DOUBLE_EQ(flow->AsArray()[0].Find("ts")->AsNumber(), 1500);
  EXPECT_DOUBLE_EQ(flow->AsArray()[1].Find("ts")->AsNumber(), 1800);
}

TEST(TraceCollectorTest, IgnoresFlowZeroSpans) {
  obs::TraceCollector collector;
  obs::TraceFrame frame;
  frame.node = 1;
  trace::Span s;
  s.name = "reconfig";
  s.cat = "cpu";
  s.flow = 0;
  frame.spans = {s};
  collector.Absorb(frame, 100);
  EXPECT_EQ(collector.span_count(), 0u);
  EXPECT_EQ(collector.flow_count(), 0u);
}

TEST(TraceCollectorTest, EvictsWholeOldestFlowsUnderPressure) {
  obs::TraceCollector collector(/*max_spans=*/4);
  for (uint64_t flow = 1; flow <= 3; ++flow) {
    obs::TraceFrame frame;
    frame.node = 1;
    for (int i = 0; i < 2; ++i) {
      trace::Span s;
      s.name = "x";
      s.cat = "cpu";
      s.flow = flow;
      s.ts = static_cast<int64_t>(flow * 10 + i);
      frame.spans.push_back(s);
    }
    collector.Absorb(frame, 0);
  }
  // 6 spans against a budget of 4: the oldest flow goes, wholesale.
  EXPECT_EQ(collector.flows_forgotten(), 1u);
  EXPECT_EQ(collector.flow_count(), 2u);
  EXPECT_EQ(collector.span_count(), 4u);
}

TEST(TraceCollectorTest, FlowJsonExplainsFlowsWithAQueryRoot) {
  obs::TraceCollector collector;
  obs::TraceFrame frame;
  frame.node = 0;
  trace::Span root;
  root.name = "query";
  root.cat = "query";
  root.tid = 1;
  root.ts = 0;
  root.dur = 1000;
  root.flow = 5;
  trace::Span work;
  work.name = "agent.execute";
  work.cat = "cpu";
  work.tid = 2;
  work.ts = 100;
  work.dur = 400;
  work.flow = 5;
  frame.spans = {root, work};
  collector.Absorb(frame, 0);

  obs::TraceExportContext ctx;
  auto parsed = obs::ParseJson(collector.FlowJson(ctx, 5));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed.value().Find("explain"), nullptr);
  ASSERT_NE(parsed.value().Find("spans"), nullptr);
  EXPECT_EQ(parsed.value().Find("spans")->AsArray().size(), 2u);

  // Unknown flows serialize as an empty span list, no explain.
  auto missing = obs::ParseJson(collector.FlowJson(ctx, 999));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().Find("spans")->AsArray().size(), 0u);
  EXPECT_EQ(missing.value().Find("explain"), nullptr);
}

// ------------------------------------------------- cross-process sampling

/// Two TcpNets with a shared port plan stand in for two fleet processes:
/// net A owns global nodes 0..1, net B owns 2..3. They only share
/// 127.0.0.1.
TEST(TraceTcpTest, SampledBitPropagatesAcrossProcessBoundary) {
  // The sender samples everything; the receiver samples nothing locally,
  // so any span it records for the flow proves the wire bit forced it.
  trace::TraceRecorder send_recorder(
      {.ring_capacity = 64, .sample_rate = 1.0});
  trace::TraceRecorder recv_recorder(
      {.ring_capacity = 64, .sample_rate = 0.0});
  obs::FlightRecorder recv_flight({.capacity = 64});

  std::unique_ptr<net::TcpNet> net_a;
  std::unique_ptr<net::TcpNet> net_b;
  net::TcpTransport* a0 = nullptr;
  net::TcpTransport* b0 = nullptr;
  // Fixed ports can race other CI jobs; walk a few bases before giving up.
  for (uint16_t base : {26140, 27440, 28740, 29940}) {
    net::TcpOptions options_a;
    options_a.trace = &send_recorder;
    options_a.node_base = 0;
    options_a.port_base = base;
    net_a = std::make_unique<net::TcpNet>(options_a);
    auto ra0 = net_a->AddNode();
    auto ra1 = net_a->AddNode();

    net::TcpOptions options_b;
    options_b.trace = &recv_recorder;
    options_b.flight = &recv_flight;
    options_b.node_base = 2;
    options_b.port_base = base;
    net_b = std::make_unique<net::TcpNet>(options_b);
    auto rb0 = net_b->AddNode();
    auto rb1 = net_b->AddNode();
    if (ra0.ok() && ra1.ok() && rb0.ok() && rb1.ok()) {
      a0 = ra0.value();
      b0 = rb0.value();
      break;
    }
    net_a.reset();
    net_b.reset();
  }
  ASSERT_NE(a0, nullptr) << "no free port base";
  ASSERT_EQ(b0->local(), 2u);

  // Each net can address the other's nodes through the port plan.
  EXPECT_TRUE(net_a->Addressable(2));
  EXPECT_FALSE(net_a->IsLocal(2));
  EXPECT_TRUE(net_b->IsLocal(2));

  std::atomic<bool> delivered{false};
  b0->SetHandler([&](const net::Message&) { delivered.store(true); });
  net_a->Start();
  net_b->Start();

  constexpr FlowId kFlow = 918273;
  net_a->Run([&]() { a0->Send(2, 0x77, Bytes{4, 5}, 0, kFlow); });
  ASSERT_TRUE(WaitUntil(net_b.get(), [&]() { return delivered.load(); }));

  std::vector<trace::Span> spans;
  std::vector<obs::FlightEvent> events;
  net_b->Run([&]() {
    spans = recv_recorder.Spans();
    events = recv_flight.Events();
  });
  net_a->Stop();
  net_b->Stop();

  // The receiver was forced onto the flow and recorded the arrival as a
  // point event carrying the sender's clock for bpstitch.
  EXPECT_EQ(recv_recorder.flows_sampled(), 1u);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].cat, "net");
  EXPECT_EQ(spans[0].flow, kFlow);
  EXPECT_EQ(spans[0].tid, 2u);
  EXPECT_EQ(spans[0].dur, 0);  // Cross-process: clocks don't mix.
  uint64_t sent_us = 0;
  for (const auto& [k, v] : spans[0].args) {
    if (k == "sent_us") sent_us = v;
  }
  EXPECT_GT(sent_us, 0u);

  // The forced decision is cross-linked into the flight recorder.
  bool saw_trace_sampled = false;
  for (const obs::FlightEvent& e : events) {
    if (e.type == obs::EventType::kTraceSampled) {
      EXPECT_EQ(e.flow, kFlow);
      EXPECT_EQ(e.a, 1u);  // Forced by the wire, not decided locally.
      saw_trace_sampled = true;
    }
  }
  EXPECT_TRUE(saw_trace_sampled);
}

}  // namespace
}  // namespace bestpeer
