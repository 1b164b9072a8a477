#ifndef BESTPEER_NET_TRANSPORT_H_
#define BESTPEER_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/message.h"
#include "obs/flight_recorder.h"
#include "util/ids.h"
#include "util/sim_time.h"
#include "util/trace.h"

namespace bestpeer::net {

/// Cost/shape parameters of the link a transport runs over. Protocol-level
/// cost estimators (core/shipping) consume this instead of the simulator's
/// NetworkOptions, so the same code-vs-data shipping decision logic runs
/// against either backend.
struct LinkProfile {
  /// One-way propagation latency per physical hop.
  SimTime latency = Micros(500);
  /// NIC bandwidth in bytes per microsecond.
  double bytes_per_us = 12.5;
  /// Fixed per-message framing overhead added to wire_size.
  size_t frame_overhead = kFrameOverheadBytes;
};

/// Scheduling surface a transport exposes to protocol code. In the
/// simulator this is virtual time; over TCP it is the reactor's monotonic
/// clock (microseconds). Timers fire on the same thread that delivers
/// messages, so protocol state needs no locking in either backend.
///
/// The clock also carries the offload hook (Transport::Offload reaches it
/// through clock(), so a transport that wraps another and forwards only
/// clock() still offloads through the inner one).
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time in microseconds (virtual or monotonic).
  virtual SimTime now() const = 0;

  /// Schedules `fn` at absolute time `t`; `t` must be >= now().
  virtual void ScheduleAt(SimTime t, std::function<void()> fn) = 0;

  /// Schedules `fn` `delay` microseconds from now; delay must be >= 0.
  virtual void ScheduleAfter(SimTime delay, std::function<void()> fn) = 0;

  /// Runs `work` and then `then` for node `node`. `work` may touch only
  /// its own captures and state that locks itself (an agent's context and
  /// its node's store); `then` may touch any protocol state. The default
  /// runs both inline, `work(); then();` — the simulator's path, so every
  /// virtual-time output is unchanged. TcpClock runs `work` on a worker
  /// thread, one node's works one at a time in submission order, and
  /// posts `then` to the reactor thread.
  virtual void Offload(NodeId node, std::function<void()> work,
                       std::function<void()> then) {
    (void)node;
    work();
    then();
  }
};

/// A node's endpoint on some message-passing substrate. This interface
/// captures exactly what the protocol stacks (core node, agent runtime,
/// LIGLO, baselines) use: an address, fire-and-forget typed sends, one
/// deliver callback, CPU-cost accounting, timers, and peer liveness.
///
/// Contract shared by all backends:
///  - Single-threaded delivery: handlers, timers, RunCpu completions and
///    Offload continuations all fire on one logical thread, never
///    concurrently. The one exception is an Offload `work`, which over
///    TCP runs on a worker thread beside that logical thread.
///  - Send is fire-and-forget and may drop (offline peer, queue overflow,
///    injected fault); drops are counted, never reported to the caller —
///    protocols recover through their own timeout/retry machinery.
///  - wire_size accounting: every sent message is charged
///    payload + frame_overhead + extra_wire_bytes.
class Transport {
 public:
  using Handler = std::function<void(const Message&)>;
  /// The named parts of a CPU task's modelled cost (agent.execute's setup
  /// and scan), attached to its trace span. Over TCP, where the span
  /// measures host time, each is recorded as model_<name>. Build them
  /// behind a trace() != nullptr check so untraced runs pay nothing.
  using CpuArgs = std::vector<std::pair<std::string, uint64_t>>;

  virtual ~Transport() = default;

  /// The address of this endpoint.
  virtual NodeId local() const = 0;

  /// Sends a typed message to `dst`. `extra_wire_bytes` adds modelled
  /// bytes (e.g. a shipped agent class) without materializing them;
  /// `flow` tags the message with its query/agent id for tracing.
  virtual void Send(NodeId dst, uint32_t type, Bytes payload,
                    size_t extra_wire_bytes = 0, FlowId flow = 0) = 0;

  /// Registers the deliver callback (replaces any previous one).
  virtual void SetHandler(Handler handler) = 0;

  /// The transport's scheduling surface.
  virtual Clock& clock() = 0;

  /// Charges this node `cost` microseconds of CPU time (the modelled price
  /// of work the caller has just done) and then runs `done`, never inside
  /// this call. In the simulator `done` queues on the node's CpuModel and
  /// runs `cost` virtual µs after the CPU frees up (creating contention
  /// under load). Over TCP the work was real, so nothing waits `cost` out:
  /// `done` runs on the reactor thread once the submitting callback has
  /// returned, after every task submitted before it. `name`/`flow`/`args`
  /// feed the task's trace span: virtual time in the simulator, measured
  /// host time over TCP (DESIGN.md §12).
  virtual void RunCpu(SimTime cost, std::function<void()> done,
                      const char* name = nullptr, FlowId flow = 0,
                      CpuArgs args = {}) = 0;

  /// Names a message type for trace spans and debugging.
  virtual void RegisterTypeName(uint32_t type, std::string name) = 0;

  /// Liveness of a peer as far as this transport knows. The simulator
  /// answers authoritatively; TCP answers from connection state.
  virtual bool IsOnline(NodeId node) const = 0;

  /// Cost parameters of the underlying link.
  virtual LinkProfile link() const = 0;

  /// The active span recorder, or nullptr when tracing is disabled.
  virtual trace::TraceRecorder* trace() const { return nullptr; }

  /// The active flight recorder, or nullptr when disabled.
  virtual obs::FlightRecorder* flight() const { return nullptr; }

  /// Runs `work` and then `then` through the clock's offload hook
  /// (Clock::Offload) on this endpoint's behalf.
  void Offload(std::function<void()> work, std::function<void()> then) {
    clock().Offload(local(), std::move(work), std::move(then));
  }

  /// Records `event` stamped with this endpoint's clock and address; a
  /// no-op when the flight recorder is disabled.
  void RecordFlight(obs::FlightEvent event) {
    obs::FlightRecorder* recorder = flight();
    if (recorder == nullptr) return;
    event.ts = clock().now();
    event.node = local();
    recorder->Record(event);
  }
};

}  // namespace bestpeer::net

#endif  // BESTPEER_NET_TRANSPORT_H_
