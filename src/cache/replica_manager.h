#ifndef BESTPEER_CACHE_REPLICA_MANAGER_H_
#define BESTPEER_CACHE_REPLICA_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/ids.h"
#include "util/metrics.h"
#include "util/sim_time.h"

namespace bestpeer::cache {

/// QoS vector for one replica-placement candidate, drawn from the
/// telemetry the node already keeps per direct peer.
struct PeerQoS {
  /// Observed round-trip time of the peer's last query response (us);
  /// 0 = never observed (treated as neutral, not as instant).
  double rtt_us = 0;
  /// Consecutive missed query deadlines (health/eviction history).
  uint32_t failures = 0;
  /// Link bandwidth toward the peer in bytes/us.
  double bandwidth_bytes_per_us = 12.5;
};

struct ReplicaManagerOptions {
  /// Sketch frequency a query key must reach before its answers are
  /// pushed to neighbors.
  uint32_t hot_threshold = 3;
  /// Maximum distinct hot keys tracked for promotion at once.
  size_t top_k = 4;
  /// Minimum time between two pushes of the same key.
  SimTime cooldown = Millis(500);
  /// Metrics sink (not owned; may be null).
  metrics::Registry* metrics = nullptr;
};

/// Bookkeeping for hot-answer replication, on both sides of a push.
///
/// Source side: ShouldPromote rate-limits pushes — a key is promoted when
/// its sketch frequency crosses `hot_threshold`, at most every `cooldown`,
/// with at most `top_k` keys tracked concurrently (stale keys age out
/// after 4x the cooldown, so early hot keys cannot hog slots forever).
///
/// Receiver side: NoteStored tags each accepted replica with a generation
/// so a rescheduled expiry timer for a *re-pushed* replica cannot delete
/// the fresh copy — only the timer matching the latest generation fires.
class ReplicaManager {
 public:
  explicit ReplicaManager(ReplicaManagerOptions options);
  ReplicaManager(const ReplicaManager&) = delete;
  ReplicaManager& operator=(const ReplicaManager&) = delete;

  // --- source side ------------------------------------------------------

  /// True when `key` (at sketch frequency `frequency`) should be pushed
  /// to neighbors now. Updates the per-key promotion clock on success.
  bool ShouldPromote(const std::string& key, uint32_t frequency,
                     SimTime now);

  uint64_t promotions() const { return promotions_.value(); }

  /// QoS placement score: higher is a better replica target. The formula
  /// (documented in DESIGN.md §13) favors peers over fast links (rtt,
  /// bandwidth), and penalizes peers with eviction-track-record
  /// (consecutive failures) quadratically:
  ///
  ///   score = bandwidth / ((1 + failures)^2 * (1 + rtt_us / 1000))
  static double Score(const PeerQoS& qos);

  /// Picks up to `fanout` replica targets, ordered by Score descending
  /// with node-id-ascending tie-break — fully deterministic, so the same
  /// telemetry always yields the same placement.
  static std::vector<NodeId> SelectTargets(
      const std::vector<std::pair<NodeId, PeerQoS>>& candidates,
      size_t fanout);

  // --- receiver side ----------------------------------------------------

  /// Registers a stored replica pushed by `source`; returns the
  /// generation its expiry timer must carry.
  uint64_t NoteStored(uint64_t object_id, NodeId source = 0);

  /// True iff the replica is still tracked at exactly `generation` —
  /// i.e. the timer that fires is the latest one armed.
  bool ShouldExpire(uint64_t object_id, uint64_t generation) const;

  /// Forgets a replica (after expiry deletion).
  void Remove(uint64_t object_id);

  /// Drops every lease whose pusher was `source` (evicted or
  /// disconnected peer): returns the revoked object ids so the caller
  /// can delete the copies. Counted in cache.leases_revoked.
  std::vector<uint64_t> RevokeFrom(NodeId source);

  bool Tracks(uint64_t object_id) const {
    return replicas_.count(object_id) != 0;
  }
  size_t replica_count() const { return replicas_.size(); }
  uint64_t leases_revoked() const { return leases_revoked_.value(); }

 private:
  struct Lease {
    uint64_t generation = 0;
    NodeId source = 0;
  };

  ReplicaManagerOptions options_;
  /// key -> last promotion time.
  std::map<std::string, SimTime> promoted_;
  /// object id -> latest lease (expiry generation + pushing peer).
  std::map<uint64_t, Lease> replicas_;
  uint64_t generation_counter_ = 0;
  metrics::Counter promotions_;
  metrics::Counter leases_revoked_;
  metrics::Gauge* replicas_g_ = metrics::Gauge::Noop();
};

}  // namespace bestpeer::cache

#endif  // BESTPEER_CACHE_REPLICA_MANAGER_H_
