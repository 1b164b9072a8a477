// Fault-injection study: recall and completion under deterministic
// message loss, with and without the recovery stack (LIGLO retry with
// backoff, per-query deadlines, peer-health eviction). Loss silently
// kills agent clones, result messages and — most damaging — the LIGLO
// traffic that lets churned nodes rejoin; the recovery arm shows how much
// of the gap retries and overlay repair win back.
//
// Knobs (env):
//   BP_FAULT_LOSS=0.1    run a single loss rate instead of the sweep
//   BP_FAULT_SEED=7      experiment seed (default 42)
//   BP_FAULT_ROUNDS=8    query rounds per run
//   BP_BENCH_FAST=1      smaller stores for quick iteration
//
// Emits BENCH_fault_injection.json.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "workload/churn.h"

using namespace bestpeer;
using namespace bestpeer::bench;
using namespace bestpeer::workload;

namespace {

double EnvDouble(const char* name, double fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::atof(env) : fallback;
}

long EnvLong(const char* name, long fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::atol(env) : fallback;
}

ChurnOptions BaseOptions() {
  ChurnOptions o;
  o.node_count = 24;
  // Sparse overlay: loss-induced disconnection actually shows up here
  // (see bench_churn for why k=2).
  o.starter_peers = 2;
  o.objects_per_node = FastMode() ? 50 : 200;
  o.matches_per_node = 5;
  o.rounds = static_cast<size_t>(EnvLong("BP_FAULT_ROUNDS", 8));
  o.leave_fraction = 0.25;
  o.rejoin_fraction = 0.5;
  o.reconfigure = true;
  o.seed = static_cast<uint64_t>(EnvLong("BP_FAULT_SEED", 42));
  return o;
}

ChurnOptions WithRecovery(ChurnOptions o) {
  o.fault.liglo_retries = 3;
  o.fault.query_deadline = Seconds(1);
  o.fault.peer_failure_threshold = 2;
  o.fault.agent_seen_expiry = Seconds(10);
  return o;
}

ChurnResult Run(ChurnOptions options) {
  // Post-hoc analysis: spans feed the critical-path breakdown, the
  // sampler feeds the timeseries section, and the flight recorder
  // captures drops/retries/reconfigs (auto-dumping when recall collapses
  // and BP_FLIGHT_OUT is set).
  options.obs = {.trace = true,
                 .sample_interval = Millis(10),
                 .flight_capacity = 8192};
  options.recall_anomaly_threshold = 0.5;
  auto result = RunChurnExperiment(options);
  if (!result.ok()) {
    std::fprintf(stderr, "churn experiment failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

double MeanCompletionMs(const ChurnResult& result) {
  if (result.rounds.empty()) return 0;
  double sum = 0;
  for (const auto& r : result.rounds) {
    sum += static_cast<double>(r.completion) / 1000.0;
  }
  return sum / static_cast<double>(result.rounds.size());
}

}  // namespace

int main() {
  std::vector<double> losses = {0.0, 0.05, 0.1, 0.2, 0.3};
  if (std::getenv("BP_FAULT_LOSS") != nullptr) {
    losses = {EnvDouble("BP_FAULT_LOSS", 0.1)};
  }

  BenchReport report("fault_injection");
  report.SetColumns({"loss", "recall (no recovery)", "min",
                     "recall (recovery)", "min", "ms (recovery)"});

  PrintTitle("Recall under message loss — no recovery vs recovery");
  PrintRowHeader({"loss", "norec mean", "norec min", "rec mean", "rec min",
                  "rec ms"});
  for (double loss : losses) {
    ChurnOptions norec = BaseOptions();
    norec.fault.message_loss = loss;
    ChurnResult plain = Run(norec);

    ChurnOptions rec = WithRecovery(BaseOptions());
    rec.fault.message_loss = loss;
    ChurnResult recovered = Run(rec);
    report.Absorb(recovered);
    report.AttachObservability(recovered);

    char label[16];
    std::snprintf(label, sizeof(label), "%.2f", loss);
    std::vector<double> row = {plain.MeanRecall(), plain.MinRecall(),
                               recovered.MeanRecall(), recovered.MinRecall(),
                               MeanCompletionMs(recovered)};
    PrintRow(label, row, "%12.3f");
    report.AddRow(label, {loss, plain.MeanRecall(), plain.MinRecall(),
                          recovered.MeanRecall(), recovered.MinRecall(),
                          MeanCompletionMs(recovered)});

    std::printf(
        "    drops %.0f, liglo retries %.0f, late replies %.0f, "
        "late results %.0f, evictions %.0f\n",
        recovered.metrics.Value("fault.drops"),
        recovered.metrics.Value("liglo.retries"),
        recovered.metrics.Value("liglo.late_replies"),
        recovered.metrics.Value("core.late_results"),
        recovered.metrics.Value("core.peer_evictions"));
  }

  std::printf(
      "\nExpected: recall falls with loss in both arms; the recovery arm "
      "(retried LIGLO joins, deadline-finalized queries, eviction of dead "
      "peers) stays measurably closer to the lossless baseline.\n");
  return report.Close();
}
