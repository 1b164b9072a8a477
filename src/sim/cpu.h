#ifndef BESTPEER_SIM_CPU_H_
#define BESTPEER_SIM_CPU_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/metrics.h"
#include "util/sim_time.h"

namespace bestpeer::sim {

/// Models a node's processor as `threads` identical servers with a shared
/// FIFO queue. Submitting a task charges its service time to the earliest
/// free server; the completion callback fires when the task finishes.
///
/// This is how per-node work — StorM scans, agent reconstruction, message
/// relaying — consumes simulated time and creates queueing when a node is
/// hit by many requests at once (e.g., the base node collecting answers).
class CpuModel {
 public:
  /// `sim` must outlive this model. threads >= 1. `registry` (optional,
  /// not owned) receives task metrics; `node` labels trace spans.
  CpuModel(Simulator* sim, int threads = 1,
           metrics::Registry* registry = nullptr, uint32_t node = 0);

  /// Enqueues a task taking `service` microseconds; `done` fires at its
  /// completion time. When tracing is enabled and `name` is non-null, the
  /// task's busy interval is recorded as a span (`flow` ties it to its
  /// query/agent id) carrying a "qwait" arg when the task waited for a
  /// free thread, plus any caller-supplied `args` (build them behind a
  /// trace() != nullptr check so untraced runs pay nothing).
  void Submit(SimTime service, EventFn done, const char* name = nullptr,
              uint64_t flow = 0,
              std::vector<std::pair<std::string, uint64_t>> args = {});

  /// Time at which the earliest server becomes free (>= now).
  SimTime EarliestFree() const;

  /// Total busy time accumulated across servers.
  SimTime total_busy() const {
    return static_cast<SimTime>(busy_us_.value());
  }

  /// Number of tasks submitted.
  uint64_t tasks_submitted() const { return tasks_submitted_.value(); }

  int threads() const { return static_cast<int>(free_at_.size()); }

 private:
  Simulator* sim_;
  uint32_t node_ = 0;
  std::vector<SimTime> free_at_;
  metrics::Counter busy_us_;
  metrics::Counter tasks_submitted_;
  metrics::Counter* queue_wait_us_c_ = metrics::Counter::Noop();
  metrics::Histogram* service_us_ = metrics::Histogram::Noop();
};

}  // namespace bestpeer::sim

#endif  // BESTPEER_SIM_CPU_H_
