// Declarative scenario driver: loads any scenarios/*.json spec, runs it
// through the scenario engine with full observability and writes
// BENCH_scenario_<name>.json. One binary covers every committed scenario
// (flash crowds, diurnal traffic, heterogeneous fleets, free-riders) —
// no per-workload C++ arm needed.
//
//   bench_scenario <spec.json> [--record-trace=PATH] [--replay-trace=PATH]
//
// The spec path may also come from the BP_SCENARIO environment variable.
// --record-trace writes the run's issued-query schedule as NDJSON;
// --replay-trace re-runs that schedule (same spec + seed required) and
// reproduces the generating run's per-query answer counts exactly.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_common.h"
#include "scenario/query_trace.h"
#include "scenario/runner.h"
#include "scenario/spec.h"

using namespace bestpeer;

int main(int argc, char** argv) {
  std::string spec_path;
  std::string record_path;
  std::string replay_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--record-trace=", 0) == 0) {
      record_path = arg.substr(std::strlen("--record-trace="));
    } else if (arg.rfind("--replay-trace=", 0) == 0) {
      replay_path = arg.substr(std::strlen("--replay-trace="));
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (spec_path.empty()) {
    if (const char* env = std::getenv("BP_SCENARIO")) spec_path = env;
  }
  if (spec_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_scenario <spec.json> [--record-trace=PATH] "
                 "[--replay-trace=PATH]\n       (or set BP_SCENARIO)\n");
    return 2;
  }
  if (!record_path.empty() && !replay_path.empty()) {
    std::fprintf(stderr, "--record-trace and --replay-trace are exclusive\n");
    return 2;
  }

  auto spec_result = scenario::LoadScenarioFile(spec_path);
  if (!spec_result.ok()) {
    std::fprintf(stderr, "%s\n", spec_result.status().ToString().c_str());
    return 1;
  }
  const scenario::ScenarioSpec spec = std::move(spec_result).value();

  scenario::ScenarioRunOptions run;
  if (bench::FastMode()) run.store_scale = 0.25;
  scenario::QueryTrace replay;
  if (!replay_path.empty()) {
    auto trace_result = scenario::ReadQueryTrace(replay_path);
    if (!trace_result.ok()) {
      std::fprintf(stderr, "%s\n", trace_result.status().ToString().c_str());
      return 1;
    }
    replay = std::move(trace_result).value();
    run.replay = &replay;
  }

  bench::PrintTitle("Scenario: " + spec.name +
                    (run.replay != nullptr ? " (replay)" : ""));
  auto result_or = scenario::RunScenario(spec, run);
  if (!result_or.ok()) {
    std::fprintf(stderr, "scenario run failed: %s\n",
                 result_or.status().ToString().c_str());
    return 1;
  }
  const scenario::ScenarioResult result = std::move(result_or).value();

  if (!record_path.empty()) {
    Status s = scenario::WriteQueryTrace(result.issued, record_path);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("recorded %zu queries to %s\n", result.issued.queries.size(),
                record_path.c_str());
  }

  bench::BenchReport report("scenario_" + spec.name);
  const std::vector<std::string> columns = {
      "phase",         "queries",         "answers",
      "mean_answers",  "mean_responders", "mean_completion_ms"};
  report.SetColumns(columns);
  bench::PrintRowHeader(columns);
  size_t total_queries = 0;
  size_t total_answers = 0;
  double total_completion_ms = 0;
  double total_responders = 0;
  for (const scenario::ScenarioPhaseStats& phase : result.phases) {
    report.AddRow(phase.name,
                  {static_cast<double>(phase.queries),
                   static_cast<double>(phase.answers), phase.mean_answers,
                   phase.mean_responders, phase.mean_completion_ms});
    bench::PrintRow(phase.name,
                    {static_cast<double>(phase.queries),
                     static_cast<double>(phase.answers), phase.mean_answers,
                     phase.mean_responders, phase.mean_completion_ms});
    total_queries += phase.queries;
    total_answers += phase.answers;
  }
  for (const scenario::ScenarioQueryStats& q : result.queries) {
    total_completion_ms += ToMillis(q.completion);
    total_responders += static_cast<double>(q.responders);
  }
  const double qn =
      total_queries == 0 ? 1.0 : static_cast<double>(total_queries);
  report.AddRow("total", {static_cast<double>(total_queries),
                          static_cast<double>(total_answers),
                          static_cast<double>(total_answers) / qn,
                          total_responders / qn, total_completion_ms / qn});
  bench::PrintRow("total", {static_cast<double>(total_queries),
                            static_cast<double>(total_answers),
                            static_cast<double>(total_answers) / qn,
                            total_responders / qn, total_completion_ms / qn});
  // Suppressed arrivals go to stdout only: a replay run never has any,
  // and the record/replay reports must stay byte-identical.
  std::printf("\nissued %zu queries (%zu arrivals suppressed: issuer "
              "offline), %llu wire bytes\n",
              total_queries, result.suppressed_arrivals,
              static_cast<unsigned long long>(result.wire_bytes));

  report.Absorb(result);
  report.AttachObservability(result);
  return report.Close();
}
