// Per-layer probes the traced run makes after its workload finishes, on
// that run's own stores and agent messages.
#ifndef HOSTBENCH_PROBES_H_
#define HOSTBENCH_PROBES_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/node.h"
#include "net/transport.h"
#include "util/bytes.h"
#include "util/metrics.h"

namespace hostbench {

/// How many agent-transfer payloads a traced run keeps for the probes.
inline constexpr size_t kCapturedAgentMessages = 512;

/// Forwards every call to `inner` and keeps a copy of the first
/// kCapturedAgentMessages agent-transfer payloads sent through it (as they
/// go on the wire: Encode()d, then compressed by the node's codec). Used by
/// the traced TCP run, where no delivery hook exists.
class CapturingTransport final : public bestpeer::net::Transport {
 public:
  CapturingTransport(bestpeer::net::Transport* inner,
                     std::vector<bestpeer::Bytes>* sink)
      : inner_(inner), sink_(sink) {}

  bestpeer::NodeId local() const override { return inner_->local(); }
  void Send(bestpeer::NodeId dst, uint32_t type, bestpeer::Bytes payload,
            size_t extra_wire_bytes = 0,
            bestpeer::FlowId flow = 0) override;
  void SetHandler(Handler handler) override {
    inner_->SetHandler(std::move(handler));
  }
  bestpeer::net::Clock& clock() override { return inner_->clock(); }
  void RunCpu(bestpeer::SimTime cost, std::function<void()> done,
              const char* name = nullptr, bestpeer::FlowId flow = 0,
              CpuArgs args = {}) override {
    inner_->RunCpu(cost, std::move(done), name, flow, std::move(args));
  }
  void RegisterTypeName(uint32_t type, std::string name) override {
    inner_->RegisterTypeName(type, std::move(name));
  }
  bool IsOnline(bestpeer::NodeId node) const override {
    return inner_->IsOnline(node);
  }
  bestpeer::net::LinkProfile link() const override { return inner_->link(); }
  bestpeer::trace::TraceRecorder* trace() const override {
    return inner_->trace();
  }
  bestpeer::obs::FlightRecorder* flight() const override {
    return inner_->flight();
  }

 private:
  bestpeer::net::Transport* inner_;
  std::vector<bestpeer::Bytes>* sink_;
};

/// Adds the metrics read off the spans of the calls every driver makes:
/// workload.make_object_us, workload.objects, core.share_object_us,
/// core.share_object_us_per_object and core.issue_search_us.
void AddSpanLayers(const Tracer& tracer, Report* report);

/// Adds the agent.* counters by how far they moved from `before` to
/// `after` (snapshots of the run's registry).
void AddAgentCounters(const bestpeer::metrics::Snapshot& before,
                      const bestpeer::metrics::Snapshot& after,
                      Report* report);

/// Adds storm.scan_us_per_object: the median of several timed
/// Storm::ScanSearch calls for the query keyword on `node`'s store, per
/// stored object. Returns the number of matches the scan found.
size_t ProbeScan(bestpeer::core::BestPeerNode& node, Report* report);

/// Adds storm.pool_hit_rate and storm.pool_misses, summed over every
/// node's buffer pool.
void AddPoolStats(
    const std::vector<std::unique_ptr<bestpeer::core::BestPeerNode>>& nodes,
    Report* report);

/// Adds the compress.* and agent.encode_us / agent.decode_us probes over
/// `wire_payloads` (agent transfers compressed with `codec`). Returns false
/// when a payload fails to round-trip.
bool ProbeAgentMessages(const std::vector<bestpeer::Bytes>& wire_payloads,
                        const std::string& codec, Report* report);

}  // namespace hostbench

#endif  // HOSTBENCH_PROBES_H_
