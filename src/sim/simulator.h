#ifndef BESTPEER_SIM_SIMULATOR_H_
#define BESTPEER_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>

#include "sim/event_queue.h"
#include "util/sim_time.h"
#include "util/trace.h"

namespace bestpeer::obs {
class FlightRecorder;
struct FlightRecorderOptions;
}  // namespace bestpeer::obs

namespace bestpeer::sim {

class FaultInjector;
struct FaultOptions;

/// Discrete-event simulation kernel: a virtual clock plus an event queue.
///
/// All BestPeer experiments run on one Simulator. The clock only advances
/// when events fire, so results are bit-for-bit reproducible and independent
/// of host speed — the property that lets a laptop stand in for the paper's
/// 32-PC cluster.
class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t`; `t` must be >= now().
  void ScheduleAt(SimTime t, EventFn fn);

  /// Schedules `fn` `delay` microseconds from now; delay must be >= 0.
  void ScheduleAfter(SimTime delay, EventFn fn);

  /// Fires the earliest event. Returns false when the queue is empty.
  bool Step();

  /// Runs until no events remain (or `max_events` fired). Returns the
  /// number of events processed.
  size_t RunUntilIdle(size_t max_events = SIZE_MAX);

  /// Runs events with time <= `deadline`; the clock ends at `deadline`
  /// if the queue drains early. Returns events processed.
  size_t RunUntil(SimTime deadline);

  /// Number of events processed since construction.
  uint64_t events_processed() const { return events_processed_; }

  /// Number of pending events.
  size_t pending() const { return queue_.size(); }

  // --- tracing ------------------------------------------------------------
  //
  // The simulator owns the per-run span recorder so every layer (network,
  // CPU models, protocols) reaches it through the clock it already holds.
  // Disabled by default: trace() returns nullptr and instrumented code
  // skips span construction entirely, keeping the hot path overhead to a
  // single pointer test.

  /// Starts recording spans (idempotent; keeps existing spans). The
  /// default recorder samples everything into a ring large enough that
  /// sim runs never wrap; pass options to bound it or sample.
  void EnableTracing();
  void EnableTracing(const trace::TraceRecorderOptions& options);

  /// The active recorder, or nullptr when tracing is disabled.
  trace::TraceRecorder* trace() const { return trace_.get(); }

  /// Shared handle to the recorder so results can outlive the simulator.
  std::shared_ptr<trace::TraceRecorder> shared_trace() const { return trace_; }

  // --- fault injection ----------------------------------------------------
  //
  // The simulator owns the per-run fault injector for the same reason it
  // owns the trace recorder: every layer reaches it through the clock it
  // already holds. Disabled by default: fault() returns nullptr and the
  // network's send path pays a single pointer test.

  /// Creates the fault injector (idempotent; later calls keep the first).
  /// Enable faults before constructing a SimNetwork so the network can
  /// bind its online hook for scheduled crashes.
  FaultInjector* EnableFaults(const FaultOptions& options);

  /// The active injector, or nullptr when fault injection is disabled.
  FaultInjector* fault() const { return fault_.get(); }

  // --- flight recorder ----------------------------------------------------
  //
  // Bounded ring of structured events (sends, drops with cause, agent
  // hops, crashes, deadline expiries) for post-hoc incident analysis.
  // Same ownership and gating story as the trace recorder: disabled by
  // default, flight() == nullptr, callers pay one pointer test.

  /// Creates the flight recorder (idempotent; later calls keep the first).
  obs::FlightRecorder* EnableFlightRecorder(
      const obs::FlightRecorderOptions& options);

  /// The active recorder, or nullptr when flight recording is disabled.
  obs::FlightRecorder* flight() const { return flight_.get(); }

  /// Shared handle so dumps can outlive the simulator.
  std::shared_ptr<obs::FlightRecorder> shared_flight() const {
    return flight_;
  }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  uint64_t events_processed_ = 0;
  std::shared_ptr<trace::TraceRecorder> trace_;
  std::unique_ptr<FaultInjector> fault_;
  std::shared_ptr<obs::FlightRecorder> flight_;
};

}  // namespace bestpeer::sim

#endif  // BESTPEER_SIM_SIMULATOR_H_
