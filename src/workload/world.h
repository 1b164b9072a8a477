#ifndef BESTPEER_WORKLOAD_WORLD_H_
#define BESTPEER_WORKLOAD_WORLD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/node.h"
#include "net/sim_transport.h"
#include "obs/flight_recorder.h"
#include "obs/timeseries.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/metrics.h"
#include "util/sim_time.h"
#include "util/status.h"
#include "util/trace.h"
#include "workload/corpus.h"
#include "workload/fault_options.h"

namespace bestpeer::workload {

/// The observability planes of one simulated run; defaults keep them all
/// off. World also switches each one on from the environment, for every
/// driver alike:
///   BP_TRACE_OUT=path           forces `trace`; the Chrome-trace JSON is
///                               written there when the run finishes.
///   BP_SAMPLE_INTERVAL_US=n     overrides `sample_interval`.
///   BP_FLIGHT_OUT=path          enables the flight recorder (default
///                               capacity); the NDJSON dump is written
///                               there when the run finishes, and
///                               anomalies auto-dump there mid-run.
struct ObsOptions {
  /// Record per-query trace spans (query launch, agent hops, scans, answer
  /// return) against the virtual clock.
  bool trace = false;
  /// Sim-time cadence of the result's `timeseries` (0 = off).
  SimTime sample_interval = 0;
  /// Flight-recorder ring capacity in events (0 = off).
  size_t flight_capacity = 0;
};

/// What every simulated run hands back beside its own per-query numbers.
struct RunArtifacts {
  /// Total bytes that crossed the simulated wire.
  uint64_t wire_bytes = 0;
  /// Snapshot of every instrument the run touched (net.*, cpu.*, agent.*,
  /// core.*, storm.*, fault.*, liglo.*).
  metrics::Snapshot metrics;
  /// Trace spans, present iff tracing was on.
  std::shared_ptr<trace::TraceRecorder> trace;
  /// Periodic Registry samples, non-empty iff sampling was on.
  obs::TimeSeries timeseries;
  /// Flight-recorder ring, present iff flight recording was on.
  std::shared_ptr<obs::FlightRecorder> flight;
};

/// The simulated world a workload driver runs in: the metrics registry,
/// the simulator with its trace, flight and sampler planes, the fault
/// injector, the network, one transport per node and the infrastructure
/// BestPeer nodes share. Drivers declare it before their nodes, so every
/// instrument and endpoint outlives the components holding handles.
class World {
 public:
  /// Resolves `obs` (see ObsOptions) and attaches the fault injector
  /// before building the network, so the network binds it; zero loss
  /// attaches nothing. `net.metrics` is replaced by the World's registry.
  World(const ObsOptions& obs, const FaultRecoveryOptions& fault,
        uint64_t seed, sim::NetworkOptions net = {});
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  metrics::Registry& registry() { return registry_; }
  sim::Simulator& simulator() { return simulator_; }
  sim::SimNetwork& network() { return *network_; }
  net::SimTransportFleet& fleet() { return *fleet_; }
  core::SharedInfra& infra() { return infra_; }

  /// Re-arms the sampler after new work is queued: it parks whenever the
  /// event queue drains. No-op when sampling is off.
  void Arm();

  /// Records the root "query" span of one query, from issue at `node` to
  /// its last answer. No-op when tracing is off.
  void RecordQuery(NodeId node, uint64_t query_id, SimTime start,
                   SimTime duration);

  /// Moves the run's artifacts into `out` and writes the BP_TRACE_OUT and
  /// BP_FLIGHT_OUT files (a failed write only logs a warning).
  void Finish(RunArtifacts* out);

 private:
  metrics::Registry registry_;
  sim::Simulator simulator_;
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  std::unique_ptr<obs::SamplerDriver> sampler_driver_;
  std::unique_ptr<sim::SimNetwork> network_;
  std::unique_ptr<net::SimTransportFleet> fleet_;
  core::SharedInfra infra_;
  std::string trace_out_;
  std::string flight_out_;
};

/// Global id of object `i` in node `node`'s store: the node index sits in
/// the high bits, so ids never collide across stores.
inline storm::ObjectId GlobalObjectId(size_t node, size_t i) {
  return (static_cast<storm::ObjectId>(node) << 24) | i;
}

/// Shares `objects` corpus objects at `store` (a node with
/// ShareObject(ObjectId, const Bytes&)) under GlobalObjectId(node, i). The
/// first `matches` contain the needle, or every one of `tokens` when the
/// pool is non-empty.
template <typename Store>
Status ShareCorpus(Store& store, size_t node, size_t objects, size_t matches,
                   CorpusGenerator& corpus,
                   const std::vector<std::string>& tokens = {}) {
  for (size_t i = 0; i < objects; ++i) {
    const bool match = i < matches;
    BP_RETURN_IF_ERROR(store.ShareObject(
        GlobalObjectId(node, i), tokens.empty()
                                     ? corpus.MakeObject(match)
                                     : corpus.MakeObject(match, tokens)));
  }
  return Status::OK();
}

}  // namespace bestpeer::workload

#endif  // BESTPEER_WORKLOAD_WORLD_H_
