// Tests for the post-hoc analysis layer: flight recorder ring semantics,
// observability determinism (ISSUE 3 satellite), timeseries sampling,
// the JSON reader, the bench regression gate, and the critical-path
// acceptance criterion (components sum to measured end-to-end latency).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/bench_diff.h"
#include "obs/critical_path.h"
#include "obs/flight_recorder.h"
#include "obs/json_reader.h"
#include "obs/timeseries.h"
#include "util/json_writer.h"
#include "util/metrics.h"
#include "workload/churn.h"
#include "workload/experiment.h"
#include "workload/topology.h"

namespace bestpeer {
namespace {

using obs::DropCause;
using obs::EventType;
using obs::FlightEvent;
using obs::FlightRecorder;
using obs::FlightRecorderOptions;

FlightEvent Ev(SimTime ts, EventType type = EventType::kMsgSend) {
  FlightEvent e;
  e.ts = ts;
  e.type = type;
  e.node = 1;
  e.peer = 2;
  return e;
}

TEST(FlightRecorderTest, RingOverflowKeepsNewestAndCountsDrops) {
  FlightRecorderOptions options;
  options.capacity = 4;
  FlightRecorder recorder(options);
  for (SimTime t = 0; t < 10; ++t) recorder.Record(Ev(t));

  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped_events(), 6u);
  std::vector<FlightEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts, static_cast<SimTime>(6 + i));
  }
}

TEST(FlightRecorderTest, NdjsonHeaderReportsRingState) {
  FlightRecorderOptions options;
  options.capacity = 2;
  FlightRecorder recorder(options);
  recorder.Record(Ev(1));
  recorder.Record(Ev(2));
  recorder.Record(Ev(3));
  recorder.TripAnomaly(4, "test \"anomaly\"");

  const std::string dump = recorder.ToNdjson();
  auto header_end = dump.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  auto header = obs::ParseJson(dump.substr(0, header_end));
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->Find("capacity")->AsNumber(), 2);
  EXPECT_EQ(header->Find("recorded")->AsNumber(), 4);  // 3 events + anomaly.
  EXPECT_EQ(header->Find("dropped")->AsNumber(), 2);
  ASSERT_EQ(header->Find("anomalies")->AsArray().size(), 1u);
  EXPECT_EQ(header->Find("anomalies")->AsArray()[0].AsString(),
            "test \"anomaly\"");
  // Every line must parse as JSON.
  size_t start = 0;
  int lines = 0;
  while (start < dump.size()) {
    size_t end = dump.find('\n', start);
    if (end == std::string::npos) end = dump.size();
    auto line = obs::ParseJson(dump.substr(start, end - start));
    EXPECT_TRUE(line.ok()) << dump.substr(start, end - start);
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 3);  // Header + the 2 newest events.
}

// --- timeseries sampler ---------------------------------------------------

TEST(TimeSeriesSamplerTest, DeltasAndLevels) {
  metrics::Registry registry;
  metrics::Counter* bytes = registry.GetCounter("test.bytes");
  metrics::Gauge* depth = registry.GetGauge("test.depth");

  obs::TimeSeriesSampler sampler(&registry, 10);
  sampler.AddDelta("bytes", "test.bytes");
  sampler.AddLevel("depth", "test.depth");

  bytes->Add(100);
  depth->Set(3);
  sampler.Sample(0);
  bytes->Add(40);
  depth->Set(7);
  sampler.Sample(10);
  sampler.Sample(10);  // Same timestamp: deduped.
  sampler.Sample(20);  // No activity: zero delta, level holds.

  obs::TimeSeries ts = sampler.Take();
  ASSERT_EQ(ts.timestamps.size(), 3u);
  ASSERT_EQ(ts.columns.size(), 2u);  // ts_us is added at serialization.
  EXPECT_EQ(ts.points[0][0], 100);   // First sample: everything so far.
  EXPECT_EQ(ts.points[0][1], 3);
  EXPECT_EQ(ts.points[1][0], 40);  // Delta since previous sample.
  EXPECT_EQ(ts.points[1][1], 7);   // Level, not delta.
  EXPECT_EQ(ts.points[2][0], 0);
  EXPECT_EQ(ts.points[2][1], 7);

  auto parsed = obs::ParseJson(ts.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("points")->AsArray().size(), 3u);
}

// --- JSON reader ----------------------------------------------------------

TEST(JsonReaderTest, ParsesNestedDocument) {
  auto v = obs::ParseJson(
      R"({"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true, "e": null}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_object());
  const auto& a = v->Find("a")->AsArray();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].AsNumber(), 1);
  EXPECT_EQ(a[1].AsNumber(), 2.5);
  EXPECT_EQ(a[2].AsNumber(), -300);
  EXPECT_EQ(v->Find("b")->Find("c")->AsString(), "x\ny");
  EXPECT_TRUE(v->Find("b")->Find("d")->AsBool());
  EXPECT_TRUE(v->Find("b")->Find("e")->is_null());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonReaderTest, UnicodeEscapes) {
  auto v = obs::ParseJson(R"("Aé")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "A\xc3\xa9");
}

TEST(JsonReaderTest, RejectsMalformedInput) {
  EXPECT_FALSE(obs::ParseJson("{").ok());
  EXPECT_FALSE(obs::ParseJson("[1,]").ok());
  EXPECT_FALSE(obs::ParseJson("nope").ok());
  EXPECT_FALSE(obs::ParseJson("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(obs::ParseJson("\"unterminated").ok());
}

TEST(JsonReaderTest, RoundTripsWriterEscapes) {
  const std::string ugly = "line\nbreak \"quoted\" back\\slash \t";
  auto v = obs::ParseJson(JsonQuoted(ugly));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->AsString(), ugly);
  // Non-finite numbers become null, keeping documents parseable.
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonNumber(1.0 / 0.0), "null");
}

// --- bench diff -----------------------------------------------------------

obs::JsonValue Report(double wire_bytes, double row_value) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), R"({
    "figure": "test_fig",
    "columns": ["n", "latency"],
    "rows": [{"label": "8", "values": [%g]}],
    "summary": {"wire_bytes": %g}
  })",
                row_value, wire_bytes);
  auto v = obs::ParseJson(buf);
  EXPECT_TRUE(v.ok());
  return std::move(v).value();
}

TEST(BenchDiffTest, FlagsWireBytesRegressionOverTenPercent) {
  obs::BenchDiff diff =
      obs::CompareReports(Report(1000, 5.0), Report(1111, 5.0));
  EXPECT_FALSE(diff.ok());
  ASSERT_EQ(diff.violations(), 1u);
  bool found = false;
  for (const auto& e : diff.entries) {
    if (e.metric == "summary.wire_bytes") {
      found = true;
      EXPECT_TRUE(e.regression);
      EXPECT_NEAR(e.rel_change, 0.111, 1e-3);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_NE(diff.FormatText().find("FAIL"), std::string::npos);
}

TEST(BenchDiffTest, AcceptsChangesWithinThreshold) {
  obs::BenchDiff diff =
      obs::CompareReports(Report(1000, 5.0), Report(1050, 5.2));
  EXPECT_TRUE(diff.ok()) << diff.FormatText();
  EXPECT_EQ(diff.figure, "test_fig");
}

TEST(BenchDiffTest, PerMetricThresholdOverride) {
  obs::DiffOptions options;
  options.thresholds["summary.wire_bytes"] = 0.02;
  obs::BenchDiff diff =
      obs::CompareReports(Report(1000, 5.0), Report(1050, 5.0), options);
  EXPECT_FALSE(diff.ok());  // 5% move, 2% limit.
}

TEST(BenchDiffTest, MissingRowIsStructuralError) {
  auto base = obs::ParseJson(R"({
    "figure": "f", "columns": ["n", "x"],
    "rows": [{"label": "a", "values": [1]},
             {"label": "b", "values": [2]}],
    "summary": {}
  })");
  auto cur = obs::ParseJson(R"({
    "figure": "f", "columns": ["n", "x"],
    "rows": [{"label": "a", "values": [1]}],
    "summary": {}
  })");
  ASSERT_TRUE(base.ok() && cur.ok());
  obs::BenchDiff diff = obs::CompareReports(base.value(), cur.value());
  EXPECT_FALSE(diff.ok());
  EXPECT_FALSE(diff.structure_errors.empty());
}

// --- observability determinism (same seed + faults) -----------------------

workload::ChurnOptions FaultyChurn() {
  workload::ChurnOptions o;
  o.node_count = 12;
  o.starter_peers = 2;
  o.objects_per_node = 30;
  o.matches_per_node = 3;
  o.rounds = 3;
  o.fault.message_loss = 0.15;
  o.fault.liglo_retries = 2;
  o.fault.query_deadline = Seconds(1);
  o.seed = 7;
  o.obs = {.trace = true,
           .sample_interval = Millis(5),
           .flight_capacity = 4096};
  return o;
}

TEST(ObsDeterminismTest, SameSeedSameFaultsBitIdenticalDumps) {
  auto a = workload::RunChurnExperiment(FaultyChurn());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = workload::RunChurnExperiment(FaultyChurn());
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  ASSERT_NE(a->flight, nullptr);
  ASSERT_NE(b->flight, nullptr);
  EXPECT_GT(a->flight->recorded(), 0u);
  EXPECT_EQ(a->flight->ToNdjson(), b->flight->ToNdjson());

  ASSERT_FALSE(a->timeseries.empty());
  EXPECT_EQ(a->timeseries.ToJson(), b->timeseries.ToJson());
}

TEST(ObsDeterminismTest, RecorderAndSamplerDoNotPerturbTheSchedule) {
  workload::ChurnOptions with = FaultyChurn();
  workload::ChurnOptions without = FaultyChurn();
  without.obs = {};

  auto a = workload::RunChurnExperiment(with);
  auto b = workload::RunChurnExperiment(without);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->rounds.size(), b->rounds.size());
  for (size_t i = 0; i < a->rounds.size(); ++i) {
    EXPECT_EQ(a->rounds[i].received_answers, b->rounds[i].received_answers);
    EXPECT_EQ(a->rounds[i].completion, b->rounds[i].completion);
  }
  EXPECT_EQ(b->flight, nullptr);
  EXPECT_TRUE(b->timeseries.empty());
}

// --- critical path --------------------------------------------------------

/// Acceptance criterion: the per-component attribution of every query
/// sums to its measured end-to-end latency (±1 µs of rounding; the walk
/// is integer, so it is exact here).
TEST(CriticalPathTest, ComponentsSumToEndToEndLatency) {
  workload::ExperimentOptions options;
  options.topology = workload::MakeLine(6);
  options.scheme = workload::Scheme::kBpr;
  options.objects_per_node = 40;
  options.matches_per_node = 4;
  options.queries = 3;
  options.ttl = 16;
  options.obs.trace = true;
  options.obs.flight_capacity = 4096;
  auto result = workload::RunExperiment(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);

  obs::CriticalPathReport report =
      obs::AnalyzeCriticalPaths(*result->trace, result->flight.get());
  ASSERT_EQ(report.queries.size(), options.queries);

  std::vector<SimTime> measured;
  for (const auto& q : result->queries) measured.push_back(q.completion);
  std::sort(measured.begin(), measured.end());
  std::vector<SimTime> analyzed;
  for (const auto& q : report.queries) {
    EXPECT_LE(std::llabs(static_cast<long long>(q.ComponentSum()) -
                         static_cast<long long>(q.total)),
              1)
        << "flow " << q.flow;
    EXPECT_FALSE(q.hops.empty());
    analyzed.push_back(q.total);
  }
  std::sort(analyzed.begin(), analyzed.end());
  EXPECT_EQ(analyzed, measured);

  // The aggregate stats cover every attributed component and the report
  // serializes to valid JSON.
  auto parsed = obs::ParseJson(report.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("queries")->AsNumber(),
            static_cast<double>(options.queries));
  double share = 0;
  for (const auto& [name, comp] : parsed->Find("components")->AsObject()) {
    share += comp.Find("share")->AsNumber();
  }
  EXPECT_NEAR(share, 1.0, 1e-6);
}

/// A span of flow 1 for the TCP-shaped trace below.
trace::Span FlowSpan(const char* name, const char* cat, uint32_t node,
                     SimTime ts, SimTime dur,
                     std::vector<std::pair<std::string, uint64_t>> args) {
  trace::Span span;
  span.name = name;
  span.cat = cat;
  span.tid = node;
  span.ts = ts;
  span.dur = dur;
  span.flow = 1;
  span.args = std::move(args);
  return span;
}

TEST(CriticalPathTest, TcpWalkFollowsTheSenderOfEachMessage) {
  // One query over TCP, as the reactor records it: node 1 receives the
  // agent at 200 and offloads its scan; a forward task sends the clone on
  // (done by 1350) and the execution's done sends the result at 1450,
  // then ends at 1500. Measured cpu spans carry model_us, and their qwait
  // reaches back to the delivery.
  trace::TraceRecorder recorder;
  recorder.RecordSpan(FlowSpan("query", "query", 0, 0, 1700, {}));
  recorder.RecordSpan(FlowSpan("agent.migrate", "net", 1, 100, 100,
                               {{"src", 0}, {"dst", 1}, {"wire", 300}}));
  recorder.RecordSpan(FlowSpan("agent.forward", "cpu", 1, 1300, 50,
                               {{"model_us", 300}, {"qwait", 1100}}));
  recorder.RecordSpan(FlowSpan(
      "agent.execute", "cpu", 1, 300, 1200,
      {{"model_setup", 4000}, {"model_scan", 15000}, {"model_us", 19000},
       {"qwait", 100}}));
  recorder.RecordSpan(FlowSpan("search.result", "net", 0, 1450, 150,
                               {{"src", 1}, {"dst", 0}, {"wire", 200}}));
  recorder.RecordSpan(FlowSpan("result.handle", "cpu", 0, 1600, 100,
                               {{"model_us", 200}}));

  obs::CriticalPathReport report = obs::AnalyzeCriticalPaths(recorder);
  ASSERT_EQ(report.queries.size(), 1u);
  const obs::QueryBreakdown& q = report.queries[0];
  EXPECT_EQ(q.ComponentSum(), q.total);
  auto component = [&q](obs::PathComponent c) {
    return q.components[static_cast<size_t>(c)];
  };
  // The result's sender is the execution, up to its send: 300..1450 is
  // scan and its 100 µs wait for a worker is queue wait. The forward that
  // ended just before the send is not on the path.
  EXPECT_EQ(component(obs::PathComponent::kScan), 1150);
  EXPECT_EQ(component(obs::PathComponent::kCpuQueue), 100);
  EXPECT_EQ(component(obs::PathComponent::kAgentOverhead), 0);
  EXPECT_EQ(component(obs::PathComponent::kWire), 250);
  EXPECT_EQ(component(obs::PathComponent::kHandling), 100);
  EXPECT_EQ(component(obs::PathComponent::kOther), 100);
  std::vector<std::string> names;
  for (const obs::PathHop& hop : q.hops) names.push_back(hop.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"agent.migrate", "agent.execute",
                                      "search.result", "result.handle"}));
}

TEST(CriticalPathTest, EmptyTraceYieldsEmptyReport) {
  trace::TraceRecorder recorder;
  obs::CriticalPathReport report = obs::AnalyzeCriticalPaths(recorder);
  EXPECT_TRUE(report.empty());
  auto parsed = obs::ParseJson(report.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("queries")->AsNumber(), 0);
}

}  // namespace
}  // namespace bestpeer
