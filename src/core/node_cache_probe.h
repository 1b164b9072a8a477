#ifndef BESTPEER_CORE_NODE_CACHE_PROBE_H_
#define BESTPEER_CORE_NODE_CACHE_PROBE_H_

#include <cstdint>
#include <map>
#include <string>

#include "cache/result_cache.h"
#include "core/messages.h"
#include "core/node_io.h"
#include "core/search_agent.h"
#include "gossip/gossip_frame.h"
#include "util/metrics.h"

namespace bestpeer::core {

/// The result cache: this node's ResultCache of per-responder answer
/// slices, served by its search agents as a responder and used as a base
/// node to arm each search with a cache probe, so responders whose store
/// did not change answer "not modified" and the base rebuilds the answer
/// from a snapshot of its slices. A node has this component only with
/// config.enable_result_cache.
class CacheProbe {
 public:
  /// `count_gossip` registers core.gossip_invalidations (gossip is on).
  CacheProbe(NodeIo& io, metrics::Registry* metrics, bool count_gossip);

  cache::ResultCache& cache() { return cache_; }

  /// Arms `agent` with the epoch this base last saw per responder for
  /// `keyword`, and snapshots the matching slices for `query_id`.
  void Arm(uint64_t query_id, const std::string& keyword, SearchAgent& agent);
  /// The snapshotted slice a not-modified `result` from `responder`
  /// stands for (a remote hit), or nullptr when that slice was evicted or
  /// invalidated since launch: the reply is then an orphan, dropped
  /// rather than ever served stale.
  const cache::CachedSlice* NotModified(NodeId responder,
                                        const SearchResultMessage& result);
  /// A full reply from a probing responder: counts a stale probe when the
  /// responder's epoch moved since launch, then refreshes its slice so the
  /// next query for `keyword` can go conditional.
  void OnFullReply(NodeId responder, const SearchResultMessage& result,
                   const std::string& keyword);
  /// Drops a finalized query's snapshot.
  void Forget(uint64_t query_id) { snapshots_.erase(query_id); }

  /// Exports the index epoch after a store mutation.
  void OnStoreMutated(uint64_t epoch) { index_epoch_g_->Set(epoch + 1); }
  /// A gossiped epoch bump from another node drops that node's slices
  /// before a probe can discover the staleness with a full round trip.
  void OnGossipApply(const gossip::GossipItem& item);

  /// Not-modified replies this base node materialized from its cache.
  uint64_t cache_remote_hits() const { return remote_hits_.value(); }
  /// Not-modified replies dropped because the matching slice was gone.
  uint64_t cache_notmod_orphans() const { return notmod_orphans_.value(); }
  /// Full replies for a probed source whose epoch had moved — the
  /// stale-probe round trips gossip exists to eliminate.
  uint64_t cache_stale_probes() const { return stale_probes_.value(); }
  /// Cached slices dropped ahead of a probe by a gossiped epoch bump.
  uint64_t gossip_invalidations() const {
    return gossip_invalidations_.value();
  }

 private:
  /// The slice `query_id` snapshotted for `responder`, or nullptr.
  const cache::CachedSlice* Snapshot(uint64_t query_id, NodeId responder) const;

  NodeIo& io_;
  cache::ResultCache cache_;
  /// Per in-flight query: the cached slices (by responder) the launched
  /// agent's known-epoch map was built from. A not-modified reply is
  /// materialized from here — and only on an exact epoch match.
  std::map<uint64_t, std::map<NodeId, cache::CachedSlice>> snapshots_;
  metrics::Counter remote_hits_;
  metrics::Counter notmod_orphans_;
  metrics::Counter stale_probes_;
  metrics::Counter gossip_invalidations_;
  metrics::Gauge* index_epoch_g_ = metrics::Gauge::Noop();
};

}  // namespace bestpeer::core

#endif  // BESTPEER_CORE_NODE_CACHE_PROBE_H_
