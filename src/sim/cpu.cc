#include "sim/cpu.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace bestpeer::sim {

CpuModel::CpuModel(Simulator* sim, int threads, metrics::Registry* registry,
                   uint32_t node)
    : sim_(sim), node_(node) {
  assert(threads >= 1);
  free_at_.assign(static_cast<size_t>(threads), 0);
  if (registry != nullptr) {
    tasks_submitted_.set_total(registry->GetCounter("cpu.tasks"));
    busy_us_.set_total(registry->GetCounter("cpu.busy_us"));
    queue_wait_us_c_ = registry->GetCounter("cpu.queue_wait_us");
    service_us_ = registry->GetHistogram("cpu.service_us");
  }
}

void CpuModel::Submit(SimTime service, EventFn done, const char* name,
                      uint64_t flow,
                      std::vector<std::pair<std::string, uint64_t>> args) {
  assert(service >= 0);
  auto it = std::min_element(free_at_.begin(), free_at_.end());
  SimTime start = std::max(sim_->now(), *it);
  SimTime end = start + service;
  *it = end;
  tasks_submitted_.Increment();
  busy_us_.Add(static_cast<uint64_t>(service));
  queue_wait_us_c_->Add(static_cast<uint64_t>(start - sim_->now()));
  service_us_->Observe(static_cast<double>(service));
  if (name != nullptr) {
    if (trace::TraceRecorder* recorder = sim_->trace()) {
      recorder->RecordSpan(trace::CpuSpan(name, node_, sim_->now(), start,
                                          service, flow, std::move(args)));
    }
  }
  sim_->ScheduleAt(end, std::move(done));
}

SimTime CpuModel::EarliestFree() const {
  SimTime t = *std::min_element(free_at_.begin(), free_at_.end());
  return std::max(t, sim_->now());
}

}  // namespace bestpeer::sim
