#include "core/session.h"

#include <algorithm>
#include <map>

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

}  // namespace bestpeer::core
