#ifndef BESTPEER_OBS_CRITICAL_PATH_H_
#define BESTPEER_OBS_CRITICAL_PATH_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight_recorder.h"
#include "util/sim_time.h"
#include "util/trace.h"

namespace bestpeer::obs {

/// Where a microsecond of a query's end-to-end latency went. Every
/// microsecond of [issue, last answer] is attributed to exactly one
/// component, so the components of a query sum to its measured latency.
enum class PathComponent : uint8_t {
  kUplinkQueue,    ///< Waiting behind earlier transmissions on a sender NIC.
  kWire,           ///< NIC serialization (both ends) + propagation + spikes.
  kDownlinkQueue,  ///< Waiting behind earlier receptions on a receiver NIC.
  kCpuQueue,       ///< Waiting for a free CPU thread.
  kScan,           ///< Local store scan (agent execute scan part, dataship).
  kAgentOverhead,  ///< Agent serialize + reconstruct + clone forwarding.
  kHandling,       ///< Result/fetch handling CPU at the endpoints.
  kOther,          ///< Uninstrumented gaps (dispatch, waiting on siblings).
};

constexpr size_t kPathComponentCount = 8;

/// Stable lower_snake_case name used in reports.
std::string_view PathComponentName(PathComponent c);

/// One chain link of a query's critical path, in forward time order.
struct PathHop {
  std::string name;  ///< Span name ("agent.migrate", "result.handle", ...).
  uint32_t node = 0;
  SimTime start = 0;
  SimTime dur = 0;
  PathComponent component = PathComponent::kOther;
};

/// The latency decomposition of one query.
struct QueryBreakdown {
  uint64_t flow = 0;
  uint32_t base_node = 0;
  SimTime start = 0;
  /// Measured end-to-end latency (the query span's duration).
  SimTime total = 0;
  /// Attributed time per PathComponent; sums to `total` exactly.
  std::array<SimTime, kPathComponentCount> components{};
  /// Critical-path chain, oldest hop first.
  std::vector<PathHop> hops;
  /// Flight-recorder drops observed on this flow (0 without a recorder).
  uint64_t drops = 0;

  SimTime ComponentSum() const;
};

/// Aggregate percentile line for one component across all queries.
struct ComponentStats {
  PathComponent component = PathComponent::kOther;
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  /// Fraction of summed end-to-end latency attributed to this component.
  double share = 0;
};

struct CriticalPathReport {
  std::vector<QueryBreakdown> queries;
  std::vector<ComponentStats> stats;
  /// Indexes into `queries`, slowest first, at most the requested top-k.
  std::vector<size_t> slowest;

  bool empty() const { return queries.empty(); }

  /// {"queries":N,"components":{...},"top_slowest":[...]} — the
  /// `critical_path` section of BENCH_*.json.
  std::string ToJson(int indent = 0) const;
};

/// Walks each query's spans backwards from its completion, following the
/// chain of latest-ending net/cpu spans, and attributes every interval of
/// [start, completion] to a PathComponent. Net spans split into uplink
/// queue / wire / downlink queue via their up_wait/rx_wait args; cpu
/// spans split off their qwait arg as CPU-queue time. From a net span
/// whose sender's spans measure host time (TCP spans carry model_us), the
/// walk follows `src` to the sender's span covering the send and takes it
/// up to the send. `recorder` (optional) contributes per-flow drop counts.
CriticalPathReport AnalyzeCriticalPaths(const trace::TraceRecorder& trace,
                                        const FlightRecorder* recorder = nullptr,
                                        size_t top_k = 5);

}  // namespace bestpeer::obs

#endif  // BESTPEER_OBS_CRITICAL_PATH_H_
