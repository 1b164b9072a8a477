#ifndef BESTPEER_WORKLOAD_CHURN_H_
#define BESTPEER_WORKLOAD_CHURN_H_

#include <cstdint>
#include <vector>

#include "util/result.h"
#include "util/sim_time.h"
#include "workload/fault_options.h"
#include "workload/world.h"

namespace bestpeer::workload {

/// Membership-churn experiment: the scenario LIGLO exists for (§2, §3.4).
/// Nodes join through a LIGLO server, then between query rounds a
/// fraction of them silently disappears and previously departed nodes
/// return with *fresh addresses*, re-entering via the rejoin protocol.
/// Measures how much of the available data each query still reaches.
struct ChurnOptions {
  size_t node_count = 24;
  /// Peers handed out per registration (initial overlay connectivity).
  size_t starter_peers = 4;
  size_t objects_per_node = 100;
  size_t matches_per_node = 5;
  /// Query rounds to run.
  size_t rounds = 6;
  /// Fraction of online non-base nodes that silently depart each round.
  double leave_fraction = 0.2;
  /// Fraction of departed nodes that rejoin (new IP) each round.
  double rejoin_fraction = 0.5;
  /// Reconfigure the base node after each round (BPR) or not (BPS).
  bool reconfigure = true;
  uint16_t ttl = 32;
  uint64_t seed = 42;

  /// Shared fault-injection/recovery knob block (see fault_options.h).
  FaultRecoveryOptions fault;

  /// Trace, timeseries and flight planes (see ObsOptions).
  ObsOptions obs;

  /// Trip a flight-recorder anomaly (auto-dumping when BP_FLIGHT_OUT is
  /// set) whenever a round's recall drops below this. 0 = never.
  double recall_anomaly_threshold = 0.0;
};

/// Outcome of one churn round.
struct ChurnRound {
  size_t online_nodes = 0;
  /// Matches held by currently online non-base nodes.
  size_t available_answers = 0;
  /// Matches the query actually retrieved.
  size_t received_answers = 0;
  SimTime completion = 0;

  double Recall() const {
    return available_answers == 0
               ? 1.0
               : static_cast<double>(received_answers) /
                     static_cast<double>(available_answers);
  }
};

struct ChurnResult : RunArtifacts {
  std::vector<ChurnRound> rounds;

  double MeanRecall() const;
  double MinRecall() const;
};

/// Runs the experiment; deterministic per options.
Result<ChurnResult> RunChurnExperiment(const ChurnOptions& options);

}  // namespace bestpeer::workload

#endif  // BESTPEER_WORKLOAD_CHURN_H_
