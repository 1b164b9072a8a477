#ifndef BESTPEER_CORE_NODE_REPLICAS_H_
#define BESTPEER_CORE_NODE_REPLICAS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "cache/replica_manager.h"
#include "cache/result_cache.h"
#include "core/config.h"
#include "core/messages.h"
#include "core/node_io.h"
#include "core/peer_list.h"
#include "gossip/gossip.h"
#include "storm/storm.h"
#include "util/metrics.h"

namespace bestpeer::core {

/// Replicas pushed between direct peers. A §6 ReplicateObjects push is
/// lease-less: receivers keep the copies as their own. With a
/// ReplicaManager (config.enable_replication, on top of the result cache)
/// a node also pushes the objects behind hot answers as leased copies,
/// which expire at their TTL and are revoked when the pusher is lost.
class Replicas {
 public:
  /// `storage` is the node's store slot (empty until InitStorage);
  /// `cache` and `gossip` are null when their feature is off.
  Replicas(NodeIo& io, const std::unique_ptr<storm::Storm>& storage,
           const PeerList& peers, const BestPeerConfig& config,
           cache::ResultCache* cache, gossip::GossipAgent* gossip);

  /// Pushes replicas of the given local objects to every direct peer, as
  /// a lease-less push. Sessions deduplicate the answers of copies kept
  /// under the same global ids via QuerySession::unique_answers().
  Status ReplicateObjects(const std::vector<storm::ObjectId>& ids);

  /// A served answer: pushes its objects to peers once its key runs hot.
  void OnAnswerServed(std::string_view key,
                      const std::vector<uint64_t>& matches);
  /// Drops every replica lease tied to a lost peer, in both roles: as
  /// receiver, deletes copies `peer` pushed here; as pusher, forgets
  /// leases granted to `peer`.
  void RevokeLeasesFrom(NodeId peer);
  /// A gossiped lease expiry clears the holder from the lease book.
  void OnGossipApply(const gossip::GossipItem& item);

  /// Leased-replica bookkeeping (null unless enable_replication).
  cache::ReplicaManager* replica_manager() { return manager_.get(); }
  /// Replicas this node has accepted from peers.
  uint64_t replicas_stored() const { return replicas_stored_; }
  /// Hot-answer replica pushes sent to peers.
  uint64_t replica_pushes() const { return replica_pushes_.value(); }
  /// Replicas this node deleted at their TTL.
  uint64_t replicas_expired() const { return replicas_expired_.value(); }
  /// Leases this node revoked because the pushing peer was lost.
  uint64_t leases_revoked() const {
    return manager_ ? manager_->leases_revoked() : 0;
  }

 private:
  /// Pushes the objects behind a hot answer to direct peers.
  void PushHotReplicas(const std::vector<uint64_t>& ids);
  /// Stores pushed copies: leased ones are tracked and expire at their
  /// TTL; §6 copies are kept.
  void OnPush(NodeId source, CacheReplicaPushMessage& push);
  /// Deletes a pushed replica at its TTL (generation-guarded: a re-push
  /// re-arms the lease and orphans older timers).
  void ExpireReplica(storm::ObjectId id, uint64_t generation);

  NodeIo& io_;
  const std::unique_ptr<storm::Storm>& storage_;
  const PeerList& peers_;
  const BestPeerConfig& config_;
  cache::ResultCache* cache_;
  gossip::GossipAgent* gossip_;
  std::unique_ptr<cache::ReplicaManager> manager_;
  /// Pusher-side lease book: holder -> object -> source epoch at grant.
  /// QoS placement skips holders already fresh-leased on an object;
  /// gossiped/local expiries and peer loss clear entries.
  std::map<NodeId, std::map<uint64_t, uint64_t>> lease_book_;
  uint64_t replicas_stored_ = 0;
  metrics::Counter replica_pushes_;
  metrics::Counter replicas_expired_;
};

}  // namespace bestpeer::core

#endif  // BESTPEER_CORE_NODE_REPLICAS_H_
