#include "core/node_replicas.h"

#include <string>
#include <utility>

#include "net/cost_model.h"

namespace bestpeer::core {

namespace {

/// Replica targets per promotion under QoS placement.
constexpr size_t kQosReplicaFanout = 2;

}  // namespace

Replicas::Replicas(NodeIo& io, const std::unique_ptr<storm::Storm>& storage,
                   const PeerList& peers, const BestPeerConfig& config,
                   cache::ResultCache* cache, gossip::GossipAgent* gossip)
    : io_(io),
      storage_(storage),
      peers_(peers),
      config_(config),
      cache_(cache),
      gossip_(gossip) {
  if (config.metrics != nullptr && config.enable_replication) {
    replica_pushes_.set_total(
        config.metrics->GetCounter("core.replica_pushes"));
    replicas_expired_.set_total(
        config.metrics->GetCounter("core.replicas_expired"));
  }
  if (config.enable_replication && cache != nullptr) {
    cache::ReplicaManagerOptions rm;
    rm.hot_threshold = config.replica_hot_threshold;
    rm.top_k = config.replica_top_k;
    rm.cooldown = config.replica_cooldown;
    rm.metrics = config.metrics;
    manager_ = std::make_unique<cache::ReplicaManager>(rm);
  }
  io_.Handle(kCacheReplicaPushType, "cache.replica_push", this,
             &Replicas::OnPush);
}

Status Replicas::ReplicateObjects(const std::vector<storm::ObjectId>& ids) {
  if (storage_ == nullptr) {
    return Status::FailedPrecondition("storage not initialized");
  }
  // A lease-less push (source_epoch 0, no TTL): receivers keep the copies
  // as their own, with or without a ReplicaManager.
  CacheReplicaPushMessage push;
  for (storm::ObjectId id : ids) {
    BP_ASSIGN_OR_RETURN(ResultItem item, ReadShared(*storage_, id));
    push.items.push_back(std::move(item));
  }
  const Bytes encoded = push.Encode();
  for (NodeId peer : peers_.Nodes()) {
    io_.Send(peer, kCacheReplicaPushType, encoded);
  }
  return Status::OK();
}

void Replicas::OnAnswerServed(std::string_view key,
                              const std::vector<uint64_t>& matches) {
  // A manager exists only on top of the result cache, whose frequency
  // sketch drives promotion.
  if (manager_ == nullptr || storage_ == nullptr || matches.empty()) return;
  if (!manager_->ShouldPromote(std::string(key), cache_->EstimateFrequency(key),
                               io_.transport().clock().now())) {
    return;
  }
  PushHotReplicas(matches);
}

void Replicas::PushHotReplicas(const std::vector<uint64_t>& ids) {
  CacheReplicaPushMessage push;
  push.source_epoch = storage_->mutation_epoch() + 1;
  push.ttl = config_.replica_ttl;
  for (uint64_t id : ids) {
    auto item = ReadShared(*storage_, id);
    if (!item.ok()) continue;  // Deleted since the answer was served.
    push.items.push_back(std::move(item).value());
  }
  if (push.items.empty()) return;

  std::vector<NodeId> targets;
  if (config_.qos_replica_placement) {
    // Placement-aware path: score candidates by the QoS telemetry the
    // node already keeps per direct peer, and push only to the best
    // kQosReplicaFanout of them — instead of broadcasting to every
    // direct neighbor. Peers already holding a fresh lease on every
    // object of this push are skipped outright (the gossiped lease book
    // is what keeps that knowledge current across expiries).
    std::vector<std::pair<NodeId, cache::PeerQoS>> candidates;
    for (const PeerInfo& info : peers_.Snapshot()) {
      bool fully_leased = false;
      auto holder_it = lease_book_.find(info.node);
      if (holder_it != lease_book_.end()) {
        fully_leased = true;
        for (const ResultItem& item : push.items) {
          auto lease = holder_it->second.find(item.id);
          if (lease == holder_it->second.end() ||
              lease->second != push.source_epoch) {
            fully_leased = false;
            break;
          }
        }
      }
      if (fully_leased) continue;
      cache::PeerQoS qos;
      qos.rtt_us = static_cast<double>(info.last_response_time);
      qos.failures = info.consecutive_failures;
      qos.bandwidth_bytes_per_us = io_.transport().link().bytes_per_us;
      candidates.emplace_back(info.node, qos);
    }
    targets =
        cache::ReplicaManager::SelectTargets(candidates, kQosReplicaFanout);
  } else {
    targets = peers_.Nodes();
  }

  const Bytes encoded = push.Encode();
  for (NodeId peer : targets) {
    io_.Send(peer, kCacheReplicaPushType, encoded);
    replica_pushes_.Increment();
    if (config_.qos_replica_placement) {
      for (const ResultItem& item : push.items) {
        lease_book_[peer][item.id] = push.source_epoch;
        if (gossip_ != nullptr) {
          gossip_->AnnounceLeaseGrant(item.id, peer, push.source_epoch);
        }
      }
    }
    io_.transport().RecordFlight({.type = obs::EventType::kReplicaPush,
                                  .peer = peer,
                                  .a = push.items.size(),
                                  .b = push.source_epoch});
  }
}

void Replicas::OnPush(NodeId source, CacheReplicaPushMessage& push) {
  if (storage_ == nullptr) return;
  // A hot push carries the pusher's IndexEpoch (never 0) and is leased;
  // a §6 ReplicateObjects push carries 0 and is stored untracked. Leased
  // replication is opt-in on the *receiver* too: without a manager the
  // push is ignored, so a mixed fleet can't grow unmanaged copies.
  const bool leased = push.source_epoch != 0;
  if (leased && manager_ == nullptr) return;
  SimTime cost =
      net::kFetchPerObjectCost * static_cast<SimTime>(push.items.size());
  auto items =
      std::make_shared<std::vector<ResultItem>>(std::move(push.items));
  int64_t ttl = push.ttl;
  io_.transport().RunCpu(cost, [this, items, ttl, source, leased]() {
    for (const auto& item : *items) {
      if (storage_->Contains(item.id)) {
        // An object we own outright (the original, or a §6 replica)
        // must never be expired by a lease; only refresh leases on
        // copies this manager planted.
        if (!leased || !manager_->Tracks(item.id)) continue;
      } else {
        if (!storage_->Put(item.id, item.content).ok()) continue;
        ++replicas_stored_;
        if (!leased) continue;
      }
      uint64_t generation = manager_->NoteStored(item.id, source);
      if (ttl > 0) {
        storm::ObjectId id = item.id;
        io_.transport().clock().ScheduleAfter(
            ttl, [this, id, generation]() { ExpireReplica(id, generation); });
      }
    }
  });
}

void Replicas::ExpireReplica(storm::ObjectId id, uint64_t generation) {
  if (manager_ == nullptr || storage_ == nullptr) return;
  if (!manager_->ShouldExpire(id, generation)) return;  // Re-leased.
  manager_->Remove(id);
  // The delete bumps the mutation epoch, so any cached slice naming this
  // replica goes stale with it — expiry can't leave stale answers behind.
  storage_->Delete(id).ok();
  replicas_expired_.Increment();
  // Tell the fleet (the pusher above all) that this lease ended, so the
  // next promotion re-places the object instead of assuming coverage.
  if (gossip_ != nullptr) gossip_->AnnounceLeaseExpire(id, generation);
  io_.transport().RecordFlight(
      {.type = obs::EventType::kReplicaExpire, .a = id});
}

void Replicas::RevokeLeasesFrom(NodeId peer) {
  // Pusher role: forget every lease granted to the lost peer so the next
  // promotion re-places those objects.
  lease_book_.erase(peer);
  // Receiver role: delete the copies the lost peer pushed here — a
  // replica whose source is gone can never be refreshed, only go stale.
  if (manager_ == nullptr) return;
  for (uint64_t id : manager_->RevokeFrom(peer)) {
    if (storage_ != nullptr) storage_->Delete(id).ok();
    io_.transport().RecordFlight(
        {.type = obs::EventType::kLeaseRevoke, .peer = peer, .a = id});
    if (gossip_ != nullptr) gossip_->AnnounceLeaseExpire(id, 0);
  }
}

void Replicas::OnGossipApply(const gossip::GossipItem& item) {
  // Grants are informational for third parties: the pusher's own book
  // was updated at push time. An expiry means the holder's lease ended,
  // so it stops counting as freshly covered for the next promotion.
  if (item.kind != gossip::ItemKind::kLeaseExpire) return;
  auto holder_it = lease_book_.find(item.origin);
  if (holder_it == lease_book_.end()) return;
  holder_it->second.erase(item.subject);
  if (holder_it->second.empty()) lease_book_.erase(holder_it);
}

}  // namespace bestpeer::core
