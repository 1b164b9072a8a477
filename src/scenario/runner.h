#ifndef BESTPEER_SCENARIO_RUNNER_H_
#define BESTPEER_SCENARIO_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/query_trace.h"
#include "scenario/spec.h"
#include "util/result.h"
#include "util/sim_time.h"
#include "workload/world.h"

namespace bestpeer::scenario {

struct ScenarioRunOptions {
  /// Scales every class's objects_per_node (fast mode runs 0.25); the
  /// match counts stay untouched so answer totals are scale-invariant.
  double store_scale = 1.0;
  /// Trace, timeseries and flight planes (see workload::ObsOptions).
  workload::ObsOptions obs;
  /// Replay this recorded schedule instead of generating arrivals (must
  /// have been recorded against the same spec name + seed). The churn
  /// and fault streams are untouched by replay, so the sim schedule —
  /// and every per-query answer count — matches the generating run.
  const QueryTrace* replay = nullptr;
};

/// One issued query and what came back.
struct ScenarioQueryStats {
  SimTime at = 0;
  size_t issuer = 0;
  std::string keyword;
  size_t phase = 0;
  size_t answers = 0;
  size_t unique_answers = 0;
  size_t responders = 0;
  SimTime completion = 0;
};

struct ScenarioPhaseStats {
  std::string name;
  size_t queries = 0;
  size_t answers = 0;
  double mean_answers = 0;
  double mean_responders = 0;
  double mean_completion_ms = 0;
};

struct ScenarioResult : workload::RunArtifacts {
  std::vector<ScenarioQueryStats> queries;
  std::vector<ScenarioPhaseStats> phases;
  /// Arrivals skipped because the picked issuer was offline (record mode
  /// only; a replayed schedule contains only queries that were issued).
  size_t suppressed_arrivals = 0;
  /// The replayable schedule of exactly the queries this run issued.
  QueryTrace issued;
};

/// Builds the heterogeneous fleet the spec describes and drives the
/// declared phases against the sim clock: arrivals issue overlapping
/// queries from many nodes, churn waves flip class members offline and
/// back, free-rider classes query without serving. Deterministic per
/// (spec, options): same seed + same spec produce identical results.
Result<ScenarioResult> RunScenario(const ScenarioSpec& spec,
                                   const ScenarioRunOptions& options);

}  // namespace bestpeer::scenario

#endif  // BESTPEER_SCENARIO_RUNNER_H_
