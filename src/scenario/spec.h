#ifndef BESTPEER_SCENARIO_SPEC_H_
#define BESTPEER_SCENARIO_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json_reader.h"
#include "util/result.h"
#include "util/sim_time.h"
#include "workload/fault_options.h"

namespace bestpeer::scenario {

/// Spec times are fractional milliseconds; sim time is integer µs.
SimTime MsToSimTime(double ms);

/// One node class of a heterogeneous fleet: how many nodes, their link
/// and CPU profile, and what they store and do. Classes are assigned
/// contiguous node-index ranges in declaration order.
struct NodeClassSpec {
  std::string name;
  size_t count = 0;
  /// NIC bandwidth in Mbit/s; 0 uses the network default (100 Mbit/s).
  double bandwidth_mbps = 0;
  /// Extra one-way propagation latency this class pays per message.
  double extra_latency_ms = 0;
  /// CPU threads per node; 0 uses the network default.
  int cpu_threads = 0;
  size_t objects_per_node = 100;
  size_t matches_per_node = 5;
  /// Whether this class's nodes issue queries.
  bool issues_queries = true;
  /// Adversarial free-rider: queries but serves nothing. Requires
  /// matches_per_node == 0 and issues_queries == true.
  bool free_rider = false;
};

/// Time-varying arrival process of one phase, over phase-relative time.
enum class ArrivalProcess {
  kConstant,  ///< Evenly spaced, no randomness.
  kPoisson,   ///< Homogeneous Poisson at rate_per_s.
  kFlash,     ///< Poisson at rate_per_s, times `multiplier` inside the
              ///< [spike_start_ms, spike_end_ms) window (flash crowd).
  kDiurnal,   ///< Poisson at rate_per_s * (1 + amplitude*sin(2*pi*t/period)).
};

const char* ArrivalProcessName(ArrivalProcess process);

struct ArrivalSpec {
  ArrivalProcess process = ArrivalProcess::kConstant;
  /// Base arrival rate in queries/second of sim time (> 0).
  double rate_per_s = 0;
  /// Flash crowd: rate multiplier (> 1) inside the spike window.
  double multiplier = 1;
  double spike_start_ms = 0;
  double spike_end_ms = 0;
  /// Diurnal: modulation amplitude in [0, 1] and sine period (> 0).
  double amplitude = 0;
  double period_ms = 0;
};

struct PhaseSpec {
  std::string name;
  double duration_ms = 0;  ///< > 0.
  ArrivalSpec arrival;
};

/// One correlated churn wave: at `at_ms`, `fraction` of the target
/// class's online nodes silently go offline; after `down_for_ms` they
/// come back (0 = they stay down for the rest of the run).
struct ChurnWaveSpec {
  double at_ms = 0;
  std::string target_class;
  double fraction = 0;  ///< (0, 1].
  double down_for_ms = 0;
};

struct TopologySpec {
  /// "star", "tree", "line" or "random".
  std::string kind = "tree";
  size_t fanout = 4;      ///< tree only.
  size_t max_degree = 8;  ///< random only.
};

/// A fully validated declarative scenario. Parsing is strict: unknown or
/// duplicate keys, wrong-typed fields and out-of-range values are all
/// fatal, and a failed parse never yields a partial spec.
struct ScenarioSpec {
  std::string name;
  uint64_t seed = 42;
  TopologySpec topology;
  /// Pooled query keywords "needle0".."needle<pool-1>", drawn Zipf-skewed;
  /// together they must fit in object_size (CorpusGenerator::PoolBytes).
  size_t query_pool = 8;
  double query_zipf_skew = 1.1;
  size_t object_size = 512;
  uint16_t ttl = 32;
  size_t max_direct_peers = 8;
  /// "phase": every issuer reconfigures on its last query of each phase;
  /// "off": static peer sets.
  bool reconfigure_each_phase = false;
  std::vector<NodeClassSpec> classes;
  std::vector<PhaseSpec> phases;
  std::vector<ChurnWaveSpec> churn;
  /// Shared fault-injection/recovery knob block (same struct the
  /// experiment and churn drivers consume).
  workload::FaultRecoveryOptions fault;

  size_t TotalNodes() const;
  SimTime TotalDuration() const;
  /// First node index of class `c` (classes own contiguous ranges).
  size_t ClassOffset(size_t c) const;
  /// Index into `classes` for a node, assuming node < TotalNodes().
  size_t ClassOf(size_t node) const;
};

/// Parses and validates a scenario document. Errors name the offending
/// key and context.
Result<ScenarioSpec> ParseScenario(const obs::JsonValue& root);

/// Reads, parses and validates a scenario file.
Result<ScenarioSpec> LoadScenarioFile(const std::string& path);

}  // namespace bestpeer::scenario

#endif  // BESTPEER_SCENARIO_SPEC_H_
