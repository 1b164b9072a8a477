#include "util/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "scenario/runner.h"
#include "workload/churn.h"
#include "workload/experiment.h"
#include "workload/topology.h"

namespace bestpeer::workload {
namespace {

/// Small star-topology BestPeer experiment with tracing on: one base, three
/// leaves, each leaf holding matches, the query issued twice.
ExperimentOptions TracedStar() {
  ExperimentOptions o;
  o.topology = MakeStar(4);
  o.scheme = Scheme::kBps;
  o.objects_per_node = 20;
  o.object_size = 256;
  o.matches_per_node = 2;
  o.queries = 2;
  o.max_direct_peers = 4;
  o.ttl = 4;
  o.obs.trace = true;
  return o;
}

TEST(TraceE2eTest, TracingOffByDefault) {
  ExperimentOptions options = TracedStar();
  options.obs.trace = false;
  auto result = RunExperiment(options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().trace, nullptr);
}

TEST(TraceE2eTest, StarQueryProducesNestedSpans) {
  auto result = RunExperiment(TracedStar());
  ASSERT_TRUE(result.ok());
  const auto& run = result.value();
  ASSERT_NE(run.trace, nullptr);
  const auto spans = run.trace->Spans();
  ASSERT_FALSE(spans.empty());

  // One top-level "query" span per issued query.
  std::vector<const trace::Span*> queries;
  for (const auto& s : spans) {
    if (s.cat == "query") queries.push_back(&s);
  }
  ASSERT_EQ(queries.size(), 2u);

  for (const trace::Span* query : queries) {
    ASSERT_NE(query->flow, 0u);
    // The query's agent migrated to the leaves: at least one wire span
    // and one remote execution (scan) carry the query's flow id.
    std::vector<const trace::Span*> migrations, scans;
    for (const auto& s : spans) {
      if (s.flow != query->flow) continue;
      if (s.name == "agent.migrate" && s.cat == "net") migrations.push_back(&s);
      if (s.name == "agent.execute" && s.cat == "cpu") scans.push_back(&s);
    }
    EXPECT_GE(migrations.size(), 3u);  // Base fans out to 3 leaves.
    ASSERT_FALSE(scans.empty());

    // Nesting: migrations start at/after the query launch, and every
    // remote scan starts only after a migration delivered the agent to
    // that node.
    for (const trace::Span* m : migrations) {
      EXPECT_GE(m->ts, query->ts);
    }
    for (const trace::Span* scan : scans) {
      auto carried = std::find_if(
          migrations.begin(), migrations.end(), [&](const trace::Span* m) {
            return m->tid == scan->tid && m->ts + m->dur <= scan->ts;
          });
      EXPECT_NE(carried, migrations.end())
          << "scan on node " << scan->tid << " has no preceding migration";
    }
    // Answers returned to the base within the measured query window.
    bool answer_seen = false;
    for (const auto& s : spans) {
      if (s.flow == query->flow && s.cat == "net" && s.name == "search.result") {
        answer_seen = true;
        EXPECT_LE(s.ts + s.dur, query->ts + query->dur);
      }
    }
    EXPECT_TRUE(answer_seen);
  }
}

/// One fully observed run of a workload driver.
struct DriverRun {
  const char* driver;
  RunArtifacts artifacts;
  size_t queries_issued;
};

/// Every driver with all three planes on: the experiment star, a lossy
/// churn run and a small scenario fleet.
std::vector<DriverRun> ObservedDriverRuns() {
  const ObsOptions planes = {.trace = true,
                             .sample_interval = Millis(5),
                             .flight_capacity = 4096};
  std::vector<DriverRun> runs;

  ExperimentOptions experiment = TracedStar();
  experiment.obs = planes;
  auto e = RunExperiment(experiment);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  if (e.ok()) runs.push_back({"experiment", *e, e->queries.size()});

  ChurnOptions churn;
  churn.node_count = 12;
  churn.objects_per_node = 30;
  churn.matches_per_node = 3;
  churn.rounds = 4;
  churn.fault.message_loss = 0.1;
  churn.fault.liglo_retries = 2;
  churn.fault.query_deadline = Seconds(1);
  churn.obs = planes;
  auto c = RunChurnExperiment(churn);
  EXPECT_TRUE(c.ok()) << c.status().ToString();
  if (c.ok()) runs.push_back({"churn", *c, c->rounds.size()});

  scenario::ScenarioSpec spec;
  spec.name = "traced";
  spec.seed = 1234;
  spec.query_pool = 4;
  scenario::NodeClassSpec cls;
  cls.name = "a";
  cls.count = 10;
  cls.objects_per_node = 24;
  cls.matches_per_node = 3;
  spec.classes = {cls};
  scenario::PhaseSpec phase;
  phase.name = "p0";
  phase.duration_ms = 400;
  phase.arrival.process = scenario::ArrivalProcess::kPoisson;
  phase.arrival.rate_per_s = 25;
  spec.phases = {phase};
  scenario::ScenarioRunOptions scenario_options;
  scenario_options.obs = planes;
  auto r = scenario::RunScenario(spec, scenario_options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok()) runs.push_back({"scenario", *r, r->queries.size()});
  return runs;
}

TEST(TraceE2eTest, EveryDriverTracesEveryQueryAndAllWireBytes) {
  const std::vector<DriverRun> runs = ObservedDriverRuns();
  ASSERT_EQ(runs.size(), 3u);
  for (const DriverRun& run : runs) {
    SCOPED_TRACE(run.driver);
    const RunArtifacts& a = run.artifacts;
    ASSERT_NE(a.trace, nullptr);
    uint64_t traced_wire = 0;
    size_t query_spans = 0;
    for (const auto& s : a.trace->Spans()) {
      if (s.cat == "query") ++query_spans;
      if (s.cat != "net") continue;
      for (const auto& [key, value] : s.args) {
        if (key == "wire") traced_wire += value;
      }
    }
    // Every sent message produced exactly one wire span (delivered or
    // dropped), so the spans account for 100% of the wire bytes.
    EXPECT_GT(a.wire_bytes, 0u);
    EXPECT_EQ(traced_wire, a.wire_bytes);
    // One root span per issued query, so critical-path analysis sees
    // every query of every driver.
    EXPECT_GT(run.queries_issued, 0u);
    EXPECT_EQ(query_spans, run.queries_issued);
    EXPECT_FALSE(a.timeseries.empty());
    ASSERT_NE(a.flight, nullptr);
    EXPECT_GT(a.flight->recorded(), 0u);
    EXPECT_FALSE(a.metrics.entries.empty());
  }
}

TEST(TraceE2eTest, ChromeJsonExportIsLoadable) {
  auto result = RunExperiment(TracedStar());
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result.value().trace, nullptr);
  const std::string json = result.value().trace->ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"agent.migrate\""), std::string::npos);
  EXPECT_NE(json.find("\"query\""), std::string::npos);
  // Balanced JSON delimiters (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));

  const std::string path = ::testing::TempDir() + "bp_trace_test.json";
  ASSERT_TRUE(result.value().trace->WriteChromeJson(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());

  const std::string flat = result.value().trace->ToFlatText();
  EXPECT_NE(flat.find("agent.migrate"), std::string::npos);
}

trace::Span MakeSpan(uint64_t seq) {
  trace::Span s;
  s.name = "s" + std::to_string(seq);
  s.cat = "cpu";
  s.tid = 1;
  s.ts = static_cast<SimTime>(seq);
  s.dur = 1;
  s.flow = seq;
  return s;
}

TEST(TraceRecorderTest, RingOverwritesOldestAndCountsDrops) {
  trace::TraceRecorderOptions options;
  options.ring_capacity = 4;
  trace::TraceRecorder rec(options);
  for (uint64_t i = 0; i < 10; ++i) rec.RecordSpan(MakeSpan(i));

  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.spans_dropped(), 6u);

  // The ring holds the newest four spans, oldest first, and every
  // export path sees the same order.
  const auto spans = rec.Spans();
  ASSERT_EQ(spans.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].name, "s" + std::to_string(6 + i));
  }
  std::vector<std::string> visited;
  rec.ForEachSpan([&](const trace::Span& s) { visited.push_back(s.name); });
  EXPECT_EQ(visited, (std::vector<std::string>{"s6", "s7", "s8", "s9"}));
  const std::string flat = rec.ToFlatText();
  EXPECT_EQ(flat.find("s5"), std::string::npos);
  EXPECT_LT(flat.find("s6"), flat.find("s9"));
}

TEST(TraceRecorderTest, SpansSinceActsAsDrainCursor) {
  trace::TraceRecorderOptions options;
  options.ring_capacity = 8;
  trace::TraceRecorder rec(options);
  for (uint64_t i = 0; i < 3; ++i) rec.RecordSpan(MakeSpan(i));

  uint64_t cursor = 0;
  auto batch = rec.SpansSince(cursor, &cursor);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(cursor, 3u);

  // Nothing new: empty batch, cursor unchanged.
  batch = rec.SpansSince(cursor, &cursor);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(cursor, 3u);

  // Overflow past the cursor: spans that fell out of the ring are
  // silently absent, the cursor still lands at recorded().
  for (uint64_t i = 3; i < 15; ++i) rec.RecordSpan(MakeSpan(i));
  batch = rec.SpansSince(cursor, &cursor);
  ASSERT_EQ(batch.size(), 8u);  // Ring capacity, not 12.
  EXPECT_EQ(batch.front().name, "s7");
  EXPECT_EQ(batch.back().name, "s14");
  EXPECT_EQ(cursor, 15u);
}

TEST(TraceRecorderTest, SamplingIsDeterministicPerFlow) {
  trace::TraceRecorderOptions options;
  options.sample_rate = 0.25;
  trace::TraceRecorder a(options);
  trace::TraceRecorder b(options);

  // Two independent recorders (two "processes") agree on every flow, and
  // a realistic rate samples neither none nor all.
  size_t sampled = 0;
  for (uint64_t flow = 1; flow <= 1000; ++flow) {
    const bool va = a.Sampled(flow);
    EXPECT_EQ(va, b.Sampled(flow)) << "flow " << flow;
    if (va) ++sampled;
  }
  EXPECT_GT(sampled, 100u);
  EXPECT_LT(sampled, 500u);
  EXPECT_EQ(a.flows_sampled(), sampled);

  // The verdict is sticky and first_sighting fires exactly once.
  for (uint64_t flow = 1; flow <= 1000; ++flow) {
    bool first = true;
    const bool verdict = a.Sampled(flow, &first);
    EXPECT_EQ(verdict, b.Sampled(flow));
    EXPECT_FALSE(first);
  }
  EXPECT_EQ(a.flows_sampled(), sampled);
}

TEST(TraceRecorderTest, RateZeroSamplesNothingAndForceSampleOverrides) {
  trace::TraceRecorderOptions options;
  options.sample_rate = 0.0;
  trace::TraceRecorder rec(options);
  EXPECT_FALSE(rec.sample_all());
  for (uint64_t flow = 1; flow <= 100; ++flow) {
    EXPECT_FALSE(rec.Sampled(flow));
  }
  EXPECT_EQ(rec.flows_sampled(), 0u);

  // The wire-propagated decision wins over the local rate.
  EXPECT_TRUE(rec.ForceSample(42));
  EXPECT_FALSE(rec.ForceSample(42));  // Only the first sighting reports.
  EXPECT_TRUE(rec.Sampled(42));
  EXPECT_EQ(rec.flows_sampled(), 1u);
  const auto flows = rec.SampledFlows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0], 42u);

  // Flow 0 has no identity: never sampled below rate 1.0, never forced.
  EXPECT_FALSE(rec.Sampled(0));
  EXPECT_FALSE(rec.ForceSample(0));
}

TEST(TraceRecorderTest, DefaultRecorderSamplesEverything) {
  trace::TraceRecorder rec;
  EXPECT_TRUE(rec.sample_all());
  EXPECT_EQ(rec.sample_rate(), 1.0);
  EXPECT_TRUE(rec.Sampled(7));
  EXPECT_TRUE(rec.Sampled(0));  // Rate 1.0 covers unaffiliated spans too.
}

}  // namespace
}  // namespace bestpeer::workload
