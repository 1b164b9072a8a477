#include "core/reconfig_strategy.h"

#include <algorithm>
#include <map>
#include <string>

namespace bestpeer::core {

namespace {

/// Merges observations with non-responding current peers into one
/// candidate table (current peers default to answers=0, hops=1).
std::vector<PeerObservation> BuildCandidates(
    const std::vector<PeerObservation>& observations,
    const std::vector<NodeId>& current_peers) {
  std::map<NodeId, PeerObservation> table;
  for (NodeId peer : current_peers) {
    PeerObservation obs;
    obs.node = peer;
    obs.answers = 0;
    obs.hops = 1;
    table[peer] = obs;
  }
  for (const auto& obs : observations) {
    auto it = table.find(obs.node);
    if (it == table.end() || it->second.answers < obs.answers) {
      table[obs.node] = obs;
    }
  }
  std::vector<PeerObservation> out;
  out.reserve(table.size());
  for (const auto& [node, obs] : table) out.push_back(obs);
  return out;
}

/// The registered strategies, each a candidate order for stable_sort.
constexpr ReconfigStrategy kStrategies[] = {
    // MaxCount: keep the k nodes that returned the most answers; a peer
    // that answers a lot is assumed likely to satisfy future queries.
    // Ties broken deterministically by node id.
    {"maxcount",
     [](const PeerObservation& a, const PeerObservation& b) {
       if (a.answers != b.answers) return a.answers > b.answers;
       return a.node < b.node;
     }},
    // MinHops: keep the k nodes with the *largest* Hops values ("keep
    // nodes that are further away"). Nearby answerers remain reachable
    // through not-too-distant paths, so pulling far answerers close
    // minimizes total hops to reach all answers. Ties prefer more
    // answers, then node id.
    {"minhops",
     [](const PeerObservation& a, const PeerObservation& b) {
       if (a.hops != b.hops) return a.hops > b.hops;
       if (a.answers != b.answers) return a.answers > b.answers;
       return a.node < b.node;
     }},
    // FastestResponse: keep the k nodes whose first answers arrived
    // earliest, a latency-oriented alternative to the paper's two
    // strategies. Nodes that actually responded come first; silent
    // current peers (first_response == 0, answers == 0) rank last. Ties
    // prefer more answers, then node id.
    {"fastest",
     [](const PeerObservation& a, const PeerObservation& b) {
       bool a_responded = a.answers > 0;
       bool b_responded = b.answers > 0;
       if (a_responded != b_responded) return a_responded;
       if (a.first_response != b.first_response) {
         return a.first_response < b.first_response;
       }
       if (a.answers != b.answers) return a.answers > b.answers;
       return a.node < b.node;
     }},
    // No reconfiguration: always keep the current peers (BPS).
    {"none", nullptr},
};

}  // namespace

std::vector<NodeId> ReconfigStrategy::SelectPeers(
    const std::vector<PeerObservation>& observations,
    const std::vector<NodeId>& current_peers, size_t capacity) const {
  if (better_ == nullptr) {
    std::vector<NodeId> out = current_peers;
    if (out.size() > capacity) out.resize(capacity);
    return out;
  }
  auto candidates = BuildCandidates(observations, current_peers);
  std::stable_sort(candidates.begin(), candidates.end(), better_);
  if (candidates.size() > capacity) candidates.resize(capacity);
  std::vector<NodeId> out;
  out.reserve(candidates.size());
  for (const auto& c : candidates) out.push_back(c.node);
  std::sort(out.begin(), out.end());
  return out;
}

Result<const ReconfigStrategy*> MakeReconfigStrategy(std::string_view name) {
  for (const ReconfigStrategy& strategy : kStrategies) {
    if (strategy.name() == name) return &strategy;
  }
  return Status::InvalidArgument("unknown reconfiguration strategy: " +
                                 std::string(name));
}

}  // namespace bestpeer::core
