#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json_reader.h"
#include "workload/churn.h"

namespace bestpeer::workload {
namespace {

ChurnOptions SmallChurn() {
  ChurnOptions o;
  o.node_count = 12;
  o.objects_per_node = 30;
  o.matches_per_node = 3;
  o.rounds = 4;
  return o;
}

TEST(ChurnTest, NoChurnGivesFullRecall) {
  ChurnOptions o = SmallChurn();
  o.leave_fraction = 0.0;
  o.rejoin_fraction = 0.0;
  auto result = RunChurnExperiment(o).value();
  ASSERT_EQ(result.rounds.size(), 4u);
  for (const auto& round : result.rounds) {
    EXPECT_EQ(round.online_nodes, 11u);
    EXPECT_EQ(round.received_answers, round.available_answers);
    EXPECT_DOUBLE_EQ(round.Recall(), 1.0);
    EXPECT_GT(round.completion, 0);
  }
}

TEST(ChurnTest, DeparturesReduceAvailability) {
  ChurnOptions o = SmallChurn();
  o.leave_fraction = 0.3;
  o.rejoin_fraction = 0.0;
  auto result = RunChurnExperiment(o).value();
  EXPECT_LT(result.rounds.back().online_nodes,
            result.rounds.front().online_nodes);
  for (const auto& round : result.rounds) {
    EXPECT_LE(round.received_answers, round.available_answers);
  }
}

TEST(ChurnTest, RejoinsRestoreAvailability) {
  ChurnOptions o = SmallChurn();
  o.rounds = 8;
  o.leave_fraction = 0.3;
  o.rejoin_fraction = 1.0;  // Everyone who left comes straight back.
  auto result = RunChurnExperiment(o).value();
  // Availability oscillates but never collapses: by the end, rejoins
  // balance departures.
  EXPECT_GE(result.rounds.back().online_nodes, 7u);
  EXPECT_GT(result.MeanRecall(), 0.6);
}

TEST(ChurnTest, ReconfigurationImprovesRecallUnderChurn) {
  ChurnOptions bpr = SmallChurn();
  bpr.node_count = 16;
  bpr.rounds = 6;
  bpr.leave_fraction = 0.25;
  bpr.rejoin_fraction = 0.5;
  bpr.reconfigure = true;
  ChurnOptions bps = bpr;
  bps.reconfigure = false;
  auto bpr_result = RunChurnExperiment(bpr).value();
  auto bps_result = RunChurnExperiment(bps).value();
  // A self-configuring node re-adopts answering peers, so it must do at
  // least as well as the static layout on the same churn sequence.
  EXPECT_GE(bpr_result.MeanRecall() + 1e-9, bps_result.MeanRecall());
}

TEST(ChurnTest, VictimsCannotRejoinInTheSameRound) {
  // With everyone leaving and everyone rejoining each round, the rejoin
  // pool must hold only *previous*-round victims: online counts oscillate
  // 11 -> 0 -> 11 -> 0. A same-round rejoin bug would pin them at 11.
  ChurnOptions o = SmallChurn();
  o.rounds = 6;
  o.leave_fraction = 1.0;
  o.rejoin_fraction = 1.0;
  auto result = RunChurnExperiment(o).value();
  ASSERT_EQ(result.rounds.size(), 6u);
  for (size_t i = 0; i < result.rounds.size(); ++i) {
    EXPECT_EQ(result.rounds[i].online_nodes, i % 2 == 0 ? 11u : 0u)
        << "round " << i;
  }
}

TEST(ChurnTest, DeterministicPerSeed) {
  ChurnOptions o = SmallChurn();
  o.leave_fraction = 0.3;
  o.rejoin_fraction = 0.5;
  auto a = RunChurnExperiment(o).value();
  auto b = RunChurnExperiment(o).value();
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].received_answers, b.rounds[i].received_answers);
    EXPECT_EQ(a.rounds[i].completion, b.rounds[i].completion);
  }
}

TEST(ChurnTest, LossyRunWithRecoveryIsDeterministic) {
  ChurnOptions o = SmallChurn();
  o.leave_fraction = 0.25;
  o.rejoin_fraction = 0.5;
  o.fault.message_loss = 0.1;
  o.fault.liglo_retries = 2;
  o.fault.query_deadline = 1000000;  // 1s in sim microseconds.
  o.fault.peer_failure_threshold = 2;
  auto a = RunChurnExperiment(o).value();
  auto b = RunChurnExperiment(o).value();
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].online_nodes, b.rounds[i].online_nodes);
    EXPECT_EQ(a.rounds[i].received_answers, b.rounds[i].received_answers);
    EXPECT_EQ(a.rounds[i].completion, b.rounds[i].completion);
  }
}

TEST(ChurnTest, TraceOutEnvWritesOneQuerySpanPerRound) {
  const std::string path = ::testing::TempDir() + "bp_churn_trace.json";
  const char* saved = std::getenv("BP_TRACE_OUT");
  const std::string previous = saved == nullptr ? "" : saved;
  ::setenv("BP_TRACE_OUT", path.c_str(), 1);
  auto result = RunChurnExperiment(SmallChurn());
  if (saved == nullptr) {
    ::unsetenv("BP_TRACE_OUT");
  } else {
    ::setenv("BP_TRACE_OUT", previous.c_str(), 1);
  }
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no trace written to " << path;
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  auto doc = obs::ParseJson(text.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  size_t queries = 0;
  for (const obs::JsonValue& event : events->AsArray()) {
    const obs::JsonValue* cat = event.Find("cat");
    ASSERT_NE(cat, nullptr);
    if (cat->AsString() == "query") ++queries;
  }
  EXPECT_EQ(queries, result->rounds.size());
}

TEST(ChurnTest, RejectsDegenerateOptions) {
  ChurnOptions o;
  o.node_count = 1;
  EXPECT_FALSE(RunChurnExperiment(o).ok());
}

}  // namespace
}  // namespace bestpeer::workload
