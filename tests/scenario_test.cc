// Tests for the scenario engine (ISSUE 10): hostile parsing of scenario
// specs and NDJSON query traces (clean errors, never a partial spec),
// arrival-process math and determinism, runner determinism (same seed +
// spec => identical results), trace record/replay answer-count equality,
// heterogeneous link profiles, free-rider classes and churn waves.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/json_reader.h"
#include "scenario/arrival.h"
#include "scenario/query_trace.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "util/rng.h"

namespace bestpeer::scenario {
namespace {

Result<ScenarioSpec> Parse(const std::string& text) {
  Result<obs::JsonValue> doc = obs::ParseJson(text);
  if (!doc.ok()) return doc.status();
  return ParseScenario(doc.value());
}

void ExpectParseFails(const std::string& text, const std::string& needle) {
  Result<ScenarioSpec> spec = Parse(text);
  ASSERT_FALSE(spec.ok()) << "expected rejection: " << text;
  EXPECT_NE(spec.status().message().find(needle), std::string::npos)
      << "error was: " << spec.status().message();
}

// A minimal valid spec the hostile tests mutate one field at a time.
std::string BaseSpec() {
  return R"({
    "name": "base",
    "seed": 1,
    "classes": [
      {"name": "a", "count": 4, "objects_per_node": 20, "matches_per_node": 2},
      {"name": "b", "count": 4, "objects_per_node": 20, "matches_per_node": 2}
    ],
    "phases": [
      {"name": "p0", "duration_ms": 300,
       "arrival": {"process": "constant", "rate_per_s": 20}}
    ]
  })";
}

std::string Replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  return text.replace(pos, from.size(), to);
}

// ---------------------------------------------------------------------------
// Hostile spec parsing.

TEST(ScenarioSpecTest, BaseSpecParses) {
  Result<ScenarioSpec> spec = Parse(BaseSpec());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().name, "base");
  EXPECT_EQ(spec.value().TotalNodes(), 8u);
  EXPECT_EQ(spec.value().ClassOffset(1), 4u);
  EXPECT_EQ(spec.value().ClassOf(3), 0u);
  EXPECT_EQ(spec.value().ClassOf(4), 1u);
  EXPECT_EQ(spec.value().TotalDuration(), MsToSimTime(300));
}

TEST(ScenarioSpecTest, TruncatedDocumentIsRejected) {
  std::string text = BaseSpec();
  text.resize(text.size() / 2);
  EXPECT_FALSE(Parse(text).ok());
}

TEST(ScenarioSpecTest, NonObjectRootIsRejected) {
  ExpectParseFails("[1, 2, 3]", "object");
}

TEST(ScenarioSpecTest, WrongTypedSeedIsRejected) {
  ExpectParseFails(Replaced(BaseSpec(), "\"seed\": 1", "\"seed\": \"one\""),
                   "seed");
}

TEST(ScenarioSpecTest, WrongTypedClassListIsRejected) {
  Result<ScenarioSpec> spec =
      Parse(Replaced(BaseSpec(), BaseSpec().substr(
                                     BaseSpec().find("\"classes\""),
                                     BaseSpec().find("],") + 1 -
                                         BaseSpec().find("\"classes\"")),
                     "\"classes\": 7"));
  EXPECT_FALSE(spec.ok());
}

TEST(ScenarioSpecTest, UnknownTopLevelKeyIsFatal) {
  ExpectParseFails(Replaced(BaseSpec(), "\"seed\": 1",
                            "\"seed\": 1, \"sede\": 2"),
                   "unknown key 'sede'");
}

TEST(ScenarioSpecTest, UnknownClassKeyIsFatal) {
  ExpectParseFails(Replaced(BaseSpec(), "\"count\": 4",
                            "\"count\": 4, \"bandwith_mbps\": 10"),
                   "unknown key 'bandwith_mbps'");
}

TEST(ScenarioSpecTest, DuplicateJsonKeyIsFatal) {
  ExpectParseFails(Replaced(BaseSpec(), "\"seed\": 1",
                            "\"seed\": 1, \"seed\": 2"),
                   "duplicate key 'seed'");
}

TEST(ScenarioSpecTest, OutOfRangeValuesAreRejected) {
  ExpectParseFails(Replaced(BaseSpec(), "\"seed\": 1",
                            "\"seed\": 1, \"fault\": {\"message_loss\": 0.95}"),
                   "message_loss");
  ExpectParseFails(
      Replaced(BaseSpec(), "\"rate_per_s\": 20", "\"rate_per_s\": -3"),
      "rate_per_s");
  ExpectParseFails(
      Replaced(BaseSpec(), "\"duration_ms\": 300", "\"duration_ms\": 0"),
      "duration_ms");
}

TEST(ScenarioSpecTest, QueryPoolMustFitObjectSize) {
  // 100 pooled keywords take 889 bytes: at 512 the matching objects
  // would hold only needle0..needle57.
  ExpectParseFails(Replaced(BaseSpec(), "\"seed\": 1",
                            "\"seed\": 1, \"query_pool\": 100, "
                            "\"object_size\": 512"),
                   "query_pool 100 needs object_size >= 889, got 512");
  Result<ScenarioSpec> spec =
      Parse(Replaced(BaseSpec(), "\"seed\": 1",
                     "\"seed\": 1, \"query_pool\": 100, "
                     "\"object_size\": 889"));
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().query_pool, 100u);
}

TEST(ScenarioSpecTest, FractionalCountIsRejected) {
  ExpectParseFails(Replaced(BaseSpec(), "\"count\": 4", "\"count\": 4.5"),
                   "integer");
}

TEST(ScenarioSpecTest, DuplicateClassNamesAreRejected) {
  ExpectParseFails(Replaced(BaseSpec(), "\"name\": \"b\"", "\"name\": \"a\""),
                   "duplicate class");
}

TEST(ScenarioSpecTest, BadScenarioNameIsRejected) {
  ExpectParseFails(
      Replaced(BaseSpec(), "\"name\": \"base\"", "\"name\": \"Base Spec!\""),
      "name");
}

TEST(ScenarioSpecTest, FreeRiderWithMatchesIsRejected) {
  ExpectParseFails(
      Replaced(BaseSpec(), "\"matches_per_node\": 2},",
               "\"matches_per_node\": 2, \"free_rider\": true},"),
      "free_rider");
}

TEST(ScenarioSpecTest, NoQueryingClassIsRejected) {
  std::string text = BaseSpec();
  text = Replaced(text, "\"matches_per_node\": 2}",
                  "\"matches_per_node\": 2, \"issues_queries\": false}");
  text = Replaced(text, "\"matches_per_node\": 2}",
                  "\"matches_per_node\": 2, \"issues_queries\": false}");
  ExpectParseFails(text, "issues queries");
}

TEST(ScenarioSpecTest, ChurnTargetingUnknownClassIsRejected) {
  ExpectParseFails(
      Replaced(BaseSpec(), "\"seed\": 1",
               "\"seed\": 1, \"churn\": [{\"at_ms\": 100, \"class\": \"ghost\","
               " \"fraction\": 0.5}]"),
      "ghost");
}

TEST(ScenarioSpecTest, FlashSpikePastPhaseEndIsRejected) {
  ExpectParseFails(
      Replaced(BaseSpec(), "{\"process\": \"constant\", \"rate_per_s\": 20}",
               "{\"process\": \"flash\", \"rate_per_s\": 20, \"multiplier\": 4,"
               " \"spike_start_ms\": 100, \"spike_end_ms\": 400}"),
      "spike");
}

TEST(ScenarioSpecTest, MissingFileIsCleanError) {
  EXPECT_FALSE(LoadScenarioFile("/nonexistent/spec.json").ok());
}

// ---------------------------------------------------------------------------
// Arrival processes.

TEST(ArrivalTest, ConstantProcessIsEvenlySpacedAndDeterministic) {
  PhaseSpec phase;
  phase.duration_ms = 1000;
  phase.arrival.process = ArrivalProcess::kConstant;
  phase.arrival.rate_per_s = 10;
  Rng rng(7);
  std::vector<SimTime> times = GenerateArrivalTimes(phase, 5000, rng);
  // One interval in, evenly spaced, strictly inside the phase: the
  // k = 10 candidate lands exactly on the phase end and is dropped.
  ASSERT_EQ(times.size(), 9u);
  for (size_t k = 0; k < times.size(); ++k) {
    EXPECT_EQ(times[k], 5000 + MsToSimTime(100.0 * (k + 1)));
  }
}

TEST(ArrivalTest, StochasticProcessesAreSeedDeterministic) {
  PhaseSpec phase;
  phase.duration_ms = 2000;
  phase.arrival.process = ArrivalProcess::kFlash;
  phase.arrival.rate_per_s = 20;
  phase.arrival.multiplier = 5;
  phase.arrival.spike_start_ms = 500;
  phase.arrival.spike_end_ms = 1000;
  Rng a(1234), b(1234), c(99);
  std::vector<SimTime> ta = GenerateArrivalTimes(phase, 0, a);
  std::vector<SimTime> tb = GenerateArrivalTimes(phase, 0, b);
  std::vector<SimTime> tc = GenerateArrivalTimes(phase, 0, c);
  EXPECT_EQ(ta, tb);
  EXPECT_NE(ta, tc);
  ASSERT_FALSE(ta.empty());
  for (size_t i = 1; i < ta.size(); ++i) EXPECT_GE(ta[i], ta[i - 1]);
  EXPECT_LT(ta.back(), MsToSimTime(phase.duration_ms));
}

TEST(ArrivalTest, RateAtFollowsTheDeclaredShape) {
  ArrivalSpec flash;
  flash.process = ArrivalProcess::kFlash;
  flash.rate_per_s = 10;
  flash.multiplier = 8;
  flash.spike_start_ms = 300;
  flash.spike_end_ms = 800;
  EXPECT_DOUBLE_EQ(RateAt(flash, 100), 10);
  EXPECT_DOUBLE_EQ(RateAt(flash, 300), 80);
  EXPECT_DOUBLE_EQ(RateAt(flash, 799), 80);
  EXPECT_DOUBLE_EQ(RateAt(flash, 800), 10);

  ArrivalSpec diurnal;
  diurnal.process = ArrivalProcess::kDiurnal;
  diurnal.rate_per_s = 10;
  diurnal.amplitude = 0.5;
  diurnal.period_ms = 1000;
  EXPECT_NEAR(RateAt(diurnal, 250), 15, 1e-9);   // sin peak.
  EXPECT_NEAR(RateAt(diurnal, 750), 5, 1e-9);    // sin trough.
  EXPECT_NEAR(RateAt(diurnal, 1000), 10, 1e-9);  // full period.
}

TEST(ArrivalTest, ExpectedArrivalsIntegratesTheRate) {
  ArrivalSpec constant;
  constant.process = ArrivalProcess::kConstant;
  constant.rate_per_s = 10;
  EXPECT_DOUBLE_EQ(ExpectedArrivals(constant, 1000), 10);

  ArrivalSpec flash;
  flash.process = ArrivalProcess::kFlash;
  flash.rate_per_s = 10;
  flash.multiplier = 8;
  flash.spike_start_ms = 300;
  flash.spike_end_ms = 800;
  // 1s of base rate outside the spike + 0.5s at 80/s inside it.
  EXPECT_DOUBLE_EQ(ExpectedArrivals(flash, 1500), 10.0 * 1.0 + 80.0 * 0.5);

  // Over a whole period the sine integrates away.
  ArrivalSpec diurnal;
  diurnal.process = ArrivalProcess::kDiurnal;
  diurnal.rate_per_s = 10;
  diurnal.amplitude = 0.8;
  diurnal.period_ms = 2000;
  EXPECT_NEAR(ExpectedArrivals(diurnal, 2000), 20, 1e-9);
}

// ---------------------------------------------------------------------------
// Query-trace round trip and hostile NDJSON.

std::string TracePath(const char* name) {
  return testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

TEST(QueryTraceTest, RoundTripPreservesEverything) {
  QueryTrace trace;
  trace.scenario = "roundtrip";
  trace.seed = 99;
  trace.queries = {{1000, 3, "needle0"}, {2500, 7, "needle5"},
                   {2500, 1, "needle2"}};
  const std::string path = TracePath("trace_roundtrip.ndjson");
  ASSERT_TRUE(WriteQueryTrace(trace, path).ok());
  Result<QueryTrace> back = ReadQueryTrace(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().scenario, "roundtrip");
  EXPECT_EQ(back.value().seed, 99u);
  ASSERT_EQ(back.value().queries.size(), 3u);
  EXPECT_EQ(back.value().queries[1].at, 2500);
  EXPECT_EQ(back.value().queries[1].node, 7u);
  EXPECT_EQ(back.value().queries[1].keyword, "needle5");
}

TEST(QueryTraceTest, TruncatedTraceIsRejected) {
  const std::string path = TracePath("trace_truncated.ndjson");
  WriteFile(path,
            "{\"v\":1,\"scenario\":\"t\",\"seed\":1,\"queries\":3}\n"
            "{\"at_us\":100,\"node\":0,\"keyword\":\"needle0\"}\n");
  Result<QueryTrace> trace = ReadQueryTrace(path);
  ASSERT_FALSE(trace.ok());
  EXPECT_NE(trace.status().message().find("truncated"), std::string::npos);
}

TEST(QueryTraceTest, WrongTypedFieldIsRejected) {
  const std::string path = TracePath("trace_wrongtype.ndjson");
  WriteFile(path,
            "{\"v\":1,\"scenario\":\"t\",\"seed\":1,\"queries\":1}\n"
            "{\"at_us\":\"soon\",\"node\":0,\"keyword\":\"needle0\"}\n");
  EXPECT_FALSE(ReadQueryTrace(path).ok());
}

TEST(QueryTraceTest, UnknownKeyIsRejected) {
  const std::string path = TracePath("trace_unknown.ndjson");
  WriteFile(path,
            "{\"v\":1,\"scenario\":\"t\",\"seed\":1,\"queries\":1}\n"
            "{\"at_us\":100,\"node\":0,\"keyword\":\"needle0\",\"x\":1}\n");
  EXPECT_FALSE(ReadQueryTrace(path).ok());
}

TEST(QueryTraceTest, OutOfOrderTimesAreRejected) {
  const std::string path = TracePath("trace_order.ndjson");
  WriteFile(path,
            "{\"v\":1,\"scenario\":\"t\",\"seed\":1,\"queries\":2}\n"
            "{\"at_us\":200,\"node\":0,\"keyword\":\"needle0\"}\n"
            "{\"at_us\":100,\"node\":1,\"keyword\":\"needle1\"}\n");
  EXPECT_FALSE(ReadQueryTrace(path).ok());
}

TEST(QueryTraceTest, WrongVersionOrMissingHeaderIsRejected) {
  const std::string v2 = TracePath("trace_v2.ndjson");
  WriteFile(v2, "{\"v\":2,\"scenario\":\"t\",\"seed\":1,\"queries\":0}\n");
  EXPECT_FALSE(ReadQueryTrace(v2).ok());

  const std::string headless = TracePath("trace_headless.ndjson");
  WriteFile(headless, "{\"at_us\":100,\"node\":0,\"keyword\":\"needle0\"}\n");
  EXPECT_FALSE(ReadQueryTrace(headless).ok());
}

// ---------------------------------------------------------------------------
// Runner: determinism, replay, heterogeneity, free riders, churn.

ScenarioSpec SmallFleet() {
  ScenarioSpec spec;
  spec.name = "unit";
  spec.seed = 1234;
  spec.topology.kind = "tree";
  spec.topology.fanout = 3;
  spec.query_pool = 4;
  NodeClassSpec a;
  a.name = "a";
  a.count = 5;
  a.objects_per_node = 24;
  a.matches_per_node = 3;
  NodeClassSpec b;
  b.name = "b";
  b.count = 5;
  b.objects_per_node = 24;
  b.matches_per_node = 3;
  spec.classes = {a, b};
  PhaseSpec phase;
  phase.name = "p0";
  phase.duration_ms = 400;
  phase.arrival.process = ArrivalProcess::kPoisson;
  phase.arrival.rate_per_s = 25;
  spec.phases = {phase};
  return spec;
}

TEST(ScenarioRunnerTest, SameSeedAndSpecAreIdentical) {
  const ScenarioSpec spec = SmallFleet();
  ScenarioRunOptions options;
  Result<ScenarioResult> r1 = RunScenario(spec, options);
  Result<ScenarioResult> r2 = RunScenario(spec, options);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1.value().queries.size(), r2.value().queries.size());
  ASSERT_FALSE(r1.value().queries.empty());
  for (size_t i = 0; i < r1.value().queries.size(); ++i) {
    const ScenarioQueryStats& qa = r1.value().queries[i];
    const ScenarioQueryStats& qb = r2.value().queries[i];
    EXPECT_EQ(qa.at, qb.at);
    EXPECT_EQ(qa.issuer, qb.issuer);
    EXPECT_EQ(qa.keyword, qb.keyword);
    EXPECT_EQ(qa.answers, qb.answers);
    EXPECT_EQ(qa.responders, qb.responders);
    EXPECT_EQ(qa.completion, qb.completion);
  }
  EXPECT_EQ(r1.value().wire_bytes, r2.value().wire_bytes);

  ScenarioSpec other = spec;
  other.seed = 4321;
  Result<ScenarioResult> r3 = RunScenario(other, options);
  ASSERT_TRUE(r3.ok());
  bool differs = r3.value().queries.size() != r1.value().queries.size();
  for (size_t i = 0; !differs && i < r1.value().queries.size(); ++i) {
    differs = r1.value().queries[i].at != r3.value().queries[i].at;
  }
  EXPECT_TRUE(differs) << "different seeds produced an identical schedule";
}

TEST(ScenarioRunnerTest, ReplayReproducesAnswerCountsExactly) {
  const ScenarioSpec spec = SmallFleet();
  ScenarioRunOptions record;
  Result<ScenarioResult> recorded = RunScenario(spec, record);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  ASSERT_FALSE(recorded.value().issued.queries.empty());

  ScenarioRunOptions replay;
  replay.replay = &recorded.value().issued;
  Result<ScenarioResult> replayed = RunScenario(spec, replay);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  ASSERT_EQ(replayed.value().queries.size(), recorded.value().queries.size());
  for (size_t i = 0; i < recorded.value().queries.size(); ++i) {
    const ScenarioQueryStats& qr = recorded.value().queries[i];
    const ScenarioQueryStats& qp = replayed.value().queries[i];
    EXPECT_EQ(qr.at, qp.at);
    EXPECT_EQ(qr.issuer, qp.issuer);
    EXPECT_EQ(qr.keyword, qp.keyword);
    EXPECT_EQ(qr.answers, qp.answers) << "query " << i;
    EXPECT_EQ(qr.unique_answers, qp.unique_answers) << "query " << i;
    EXPECT_EQ(qr.responders, qp.responders) << "query " << i;
    EXPECT_EQ(qr.completion, qp.completion) << "query " << i;
  }
  EXPECT_EQ(replayed.value().wire_bytes, recorded.value().wire_bytes);
}

TEST(ScenarioRunnerTest, ReplayAgainstWrongSpecIsRejected) {
  const ScenarioSpec spec = SmallFleet();
  ScenarioRunOptions record;
  Result<ScenarioResult> recorded = RunScenario(spec, record);
  ASSERT_TRUE(recorded.ok());

  ScenarioSpec other = spec;
  other.seed = 77;
  ScenarioRunOptions replay;
  replay.replay = &recorded.value().issued;
  EXPECT_FALSE(RunScenario(other, replay).ok());
}

TEST(ScenarioRunnerTest, StoreScaleNeverDropsBelowMatches) {
  ScenarioSpec spec = SmallFleet();
  ScenarioRunOptions full, fast;
  fast.store_scale = 0.25;
  Result<ScenarioResult> rf = RunScenario(spec, full);
  Result<ScenarioResult> rq = RunScenario(spec, fast);
  ASSERT_TRUE(rf.ok());
  ASSERT_TRUE(rq.ok());
  // Matches are scale-invariant, so answer totals agree across scales.
  ASSERT_EQ(rf.value().queries.size(), rq.value().queries.size());
  size_t af = 0, aq = 0;
  for (const ScenarioQueryStats& q : rf.value().queries) af += q.answers;
  for (const ScenarioQueryStats& q : rq.value().queries) aq += q.answers;
  EXPECT_EQ(af, aq);
}

TEST(ScenarioRunnerTest, SlowClassCompletesSlower) {
  ScenarioSpec spec = SmallFleet();
  spec.classes[1].bandwidth_mbps = 4;     // vs the 100 Mbit/s default.
  spec.classes[1].extra_latency_ms = 20;  // each way.
  spec.phases[0].arrival.process = ArrivalProcess::kConstant;
  spec.phases[0].arrival.rate_per_s = 50;
  spec.phases[0].duration_ms = 600;
  Result<ScenarioResult> result = RunScenario(spec, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  double fast_sum = 0, slow_sum = 0;
  size_t fast_n = 0, slow_n = 0;
  for (const ScenarioQueryStats& q : result.value().queries) {
    if (q.completion == 0) continue;
    if (spec.ClassOf(q.issuer) == 0) {
      fast_sum += static_cast<double>(q.completion);
      ++fast_n;
    } else {
      slow_sum += static_cast<double>(q.completion);
      ++slow_n;
    }
  }
  ASSERT_GT(fast_n, 0u);
  ASSERT_GT(slow_n, 0u);
  EXPECT_GT(slow_sum / static_cast<double>(slow_n),
            fast_sum / static_cast<double>(fast_n));
}

TEST(ScenarioRunnerTest, FreeRidersServeNothing) {
  ScenarioSpec spec = SmallFleet();
  // Both classes free-ride: every query must come back empty, proving
  // free-rider stores contribute zero answers.
  for (NodeClassSpec& cls : spec.classes) {
    cls.matches_per_node = 0;
    cls.free_rider = true;
  }
  Result<ScenarioResult> result = RunScenario(spec, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result.value().queries.empty());
  for (const ScenarioQueryStats& q : result.value().queries) {
    EXPECT_EQ(q.answers, 0u);
  }
}

TEST(ScenarioRunnerTest, ChurnWaveReducesAnswers) {
  ScenarioSpec spec = SmallFleet();
  spec.classes[1].issues_queries = false;  // b only serves.
  PhaseSpec p1 = spec.phases[0];
  p1.name = "p1";
  spec.phases.push_back(p1);

  Result<ScenarioResult> calm = RunScenario(spec, {});
  ASSERT_TRUE(calm.ok());

  ChurnWaveSpec wave;
  wave.at_ms = 400;  // start of phase p1.
  wave.target_class = "b";
  wave.fraction = 1.0;
  wave.down_for_ms = 0;  // down for the rest of the run.
  spec.churn = {wave};
  Result<ScenarioResult> churned = RunScenario(spec, {});
  ASSERT_TRUE(churned.ok());

  ASSERT_EQ(calm.value().phases.size(), 2u);
  ASSERT_EQ(churned.value().phases.size(), 2u);
  // Identical first phase (the wave hasn't hit yet), fewer answers after
  // every serving node vanishes.
  EXPECT_EQ(churned.value().phases[0].answers, calm.value().phases[0].answers);
  EXPECT_LT(churned.value().phases[1].answers, calm.value().phases[1].answers);
}

}  // namespace
}  // namespace bestpeer::scenario
