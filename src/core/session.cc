#include "core/session.h"

#include <algorithm>
#include <map>
#include <utility>

namespace bestpeer::core {

size_t QuerySession::unique_answers() const {
  std::vector<uint64_t> ids = reported_ids_;
  std::sort(ids.begin(), ids.end());
  return static_cast<size_t>(std::unique(ids.begin(), ids.end()) -
                             ids.begin());
}

size_t QuerySession::total_answers() const {
  const auto& events = mode_ == AnswerMode::kIndicate ? fetches_ : responses_;
  size_t n = 0;
  for (const auto& e : events) n += e.answers;
  return n;
}

size_t QuerySession::total_indicated() const {
  size_t n = 0;
  for (const auto& e : responses_) n += e.answers;
  return n;
}

size_t QuerySession::responder_count() const {
  std::map<NodeId, bool> seen;
  for (const auto& e : responses_) seen[e.node] = true;
  return seen.size();
}

SimTime QuerySession::completion_time() const {
  SimTime last = start_time_;
  for (const auto& e : responses_) last = std::max(last, e.time);
  for (const auto& e : fetches_) last = std::max(last, e.time);
  return last - start_time_;
}

std::vector<PeerObservation> QuerySession::Observations() const {
  std::map<NodeId, PeerObservation> table;
  for (const auto& e : responses_) {
    auto it = table.find(e.node);
    if (it == table.end()) {
      PeerObservation obs;
      obs.node = e.node;
      obs.answers = e.answers;
      obs.hops = e.hops;
      obs.first_response = e.time;
      table[e.node] = obs;
    } else {
      it->second.answers += e.answers;
      it->second.hops = std::min(it->second.hops, e.hops);
    }
  }
  std::vector<PeerObservation> out;
  out.reserve(table.size());
  for (const auto& [node, obs] : table) out.push_back(obs);
  return out;
}

SessionTable::SessionTable(net::Transport* transport, SimTime deadline,
                           metrics::Registry* metrics,
                           std::function<void(uint64_t)> finalize)
    : transport_(transport),
      deadline_(deadline),
      finalize_(std::move(finalize)) {
  if (metrics != nullptr) {
    queries_issued_c_ = metrics->GetCounter("core.queries_issued");
    late_results_.set_total(metrics->GetCounter("core.late_results"));
    sessions_finalized_.set_total(
        metrics->GetCounter("core.sessions_finalized"));
    inflight_g_ = metrics->GetGauge("core.inflight_sessions");
  }
}

void SessionTable::Open(uint64_t query_id, std::string keyword,
                        AnswerMode mode) {
  queries_issued_c_->Increment();
  sessions_.emplace(query_id, QuerySession(query_id, std::move(keyword), mode,
                                           transport_->clock().now()));
  inflight_g_->Add(1);
  if (sessions_.size() > kMaxSessions) {
    // Ids grow with every query this node issues: the first is the oldest.
    auto oldest = sessions_.begin();
    if (!oldest->second.finalized()) inflight_g_->Add(-1);
    sessions_.erase(oldest);
  }
}

void SessionTable::ArmDeadline(uint64_t query_id) {
  if (deadline_ <= 0) return;
  transport_->clock().ScheduleAfter(
      deadline_, [this, query_id]() { finalize_(query_id); });
}

QuerySession* SessionTable::Live(uint64_t query_id) {
  auto it = sessions_.find(query_id);
  if (it == sessions_.end()) return nullptr;  // Not ours, or forgotten.
  if (it->second.finalized()) {
    // Straggler past the deadline: the answer set is frozen.
    late_results_.Increment();
    return nullptr;
  }
  return &it->second;
}

const QuerySession* SessionTable::Find(uint64_t query_id) const {
  auto it = sessions_.find(query_id);
  return it == sessions_.end() ? nullptr : &it->second;
}

const QuerySession* SessionTable::Finalize(uint64_t query_id) {
  auto it = sessions_.find(query_id);
  if (it == sessions_.end() || it->second.finalized()) return nullptr;
  it->second.Finalize();
  sessions_finalized_.Increment();
  inflight_g_->Add(-1);
  transport_->RecordFlight({.type = obs::EventType::kSessionFinalize,
                            .flow = query_id,
                            .a = it->second.total_answers(),
                            .b = it->second.responder_count()});
  if (it->second.responder_count() == 0) {
    // The deadline fired with nothing heard back — the signature of a
    // dead base-node neighborhood or a lost agent.
    transport_->RecordFlight(
        {.type = obs::EventType::kDeadlineExpire, .flow = query_id});
    if (obs::FlightRecorder* flight = transport_->flight()) {
      flight->TripAnomaly(transport_->clock().now(),
                          "deadline without responses query=" +
                              std::to_string(query_id));
    }
  }
  return &it->second;
}

size_t SessionTable::inflight() const {
  size_t n = 0;
  for (const auto& [id, session] : sessions_) {
    if (!session.finalized()) ++n;
  }
  return n;
}

}  // namespace bestpeer::core
