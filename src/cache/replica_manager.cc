#include "cache/replica_manager.h"

#include <algorithm>

namespace bestpeer::cache {

ReplicaManager::ReplicaManager(ReplicaManagerOptions options)
    : options_(options) {
  if (options_.metrics != nullptr) {
    promotions_.set_total(
        options_.metrics->GetCounter("cache.replica_promotions"));
    replicas_g_ = options_.metrics->GetGauge("cache.replicas_held");
  }
}

bool ReplicaManager::ShouldPromote(const std::string& key,
                                   uint32_t frequency, SimTime now) {
  if (frequency < options_.hot_threshold) return false;
  // Age out keys that have not been promoted in a while so the top-k
  // slots track the *current* hot set.
  const SimTime stale_after = options_.cooldown * 4;
  for (auto it = promoted_.begin(); it != promoted_.end();) {
    if (now - it->second > stale_after) {
      it = promoted_.erase(it);
    } else {
      ++it;
    }
  }
  auto it = promoted_.find(key);
  if (it != promoted_.end()) {
    if (now - it->second < options_.cooldown) return false;
    it->second = now;
  } else {
    if (promoted_.size() >= options_.top_k) return false;
    promoted_.emplace(key, now);
  }
  promotions_.Increment();
  return true;
}

double ReplicaManager::Score(const PeerQoS& qos) {
  double health = 1.0 + static_cast<double>(qos.failures);
  double latency = 1.0 + qos.rtt_us / 1000.0;
  return qos.bandwidth_bytes_per_us / (health * health * latency);
}

std::vector<NodeId> ReplicaManager::SelectTargets(
    const std::vector<std::pair<NodeId, PeerQoS>>& candidates,
    size_t fanout) {
  std::vector<std::pair<double, NodeId>> scored;
  scored.reserve(candidates.size());
  for (const auto& [node, qos] : candidates) {
    scored.emplace_back(Score(qos), node);
  }
  std::sort(scored.begin(), scored.end(),
            [](const std::pair<double, NodeId>& a,
               const std::pair<double, NodeId>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::vector<NodeId> targets;
  targets.reserve(std::min(fanout, scored.size()));
  for (const auto& [score, node] : scored) {
    if (targets.size() >= fanout) break;
    targets.push_back(node);
  }
  return targets;
}

uint64_t ReplicaManager::NoteStored(uint64_t object_id, NodeId source) {
  uint64_t generation = ++generation_counter_;
  replicas_[object_id] = Lease{generation, source};
  replicas_g_->Set(static_cast<double>(replicas_.size()));
  return generation;
}

bool ReplicaManager::ShouldExpire(uint64_t object_id,
                                  uint64_t generation) const {
  auto it = replicas_.find(object_id);
  return it != replicas_.end() && it->second.generation == generation;
}

void ReplicaManager::Remove(uint64_t object_id) {
  replicas_.erase(object_id);
  replicas_g_->Set(static_cast<double>(replicas_.size()));
}

std::vector<uint64_t> ReplicaManager::RevokeFrom(NodeId source) {
  std::vector<uint64_t> revoked;
  for (auto it = replicas_.begin(); it != replicas_.end();) {
    if (it->second.source == source) {
      revoked.push_back(it->first);
      it = replicas_.erase(it);
    } else {
      ++it;
    }
  }
  if (!revoked.empty()) {
    // Lazily registered so revocation-free runs snapshot byte-identically
    // to builds without this counter.
    if (leases_revoked_.value() == 0 && options_.metrics != nullptr) {
      leases_revoked_.set_total(
          options_.metrics->GetCounter("cache.leases_revoked"));
    }
    leases_revoked_.Add(revoked.size());
    replicas_g_->Set(static_cast<double>(replicas_.size()));
  }
  return revoked;
}

}  // namespace bestpeer::cache
