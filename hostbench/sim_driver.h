// The simulated-workload driver shared by paper_star and flood_mesh.
#ifndef HOSTBENCH_SIM_DRIVER_H_
#define HOSTBENCH_SIM_DRIVER_H_

#include <cstddef>

#include "common.h"
#include "storm/storm.h"
#include "workload/experiment.h"

namespace hostbench {

/// The store options workload::RunBestPeer uses for the gated figures:
/// 128 LRU frames and no keyword index. StormOptions' own default builds
/// the index, which the scan path never reads but which multiplies
/// populate time.
bestpeer::storm::StormOptions HarnessStoreOptions();

/// Builds the world workload::RunBestPeer builds for `options` (its
/// `queries` field is ignored), times a closed loop of repeated searches
/// from the base node for args.seconds and at least `min_queries`, checks
/// every answer count and virtual completion time against
/// workload::RunExperiment, and prints the report. Returns the exit code.
int RunSimDriver(const Args& args, bestpeer::workload::ExperimentOptions options,
                 size_t min_queries);

}  // namespace hostbench

#endif  // HOSTBENCH_SIM_DRIVER_H_
