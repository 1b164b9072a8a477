#ifndef BESTPEER_CORE_NODE_SUMMARIES_H_
#define BESTPEER_CORE_NODE_SUMMARIES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/messages.h"
#include "core/node_io.h"
#include "core/peer_list.h"
#include "storm/content_summary.h"
#include "storm/storm.h"
#include "util/metrics.h"

namespace bestpeer::core {

/// Content summaries: this node's Bloom-filter digest of its keyword
/// index, sent to each adopted peer and re-broadcast (debounced) when the
/// store mutates, and the digests of its direct peers, which let a search
/// skip peers that provably hold no match. A node has this component only
/// with config.enable_content_summaries.
class ContentSummaries {
 public:
  /// `storage` is the node's store slot (empty until InitStorage).
  ContentSummaries(NodeIo& io, const std::unique_ptr<storm::Storm>& storage,
                   const PeerList& peers, metrics::Registry* metrics);

  /// Sends the current summary to one peer unconditionally.
  void SendTo(NodeId peer);
  /// Schedules a (debounced) re-broadcast to all direct peers.
  void ScheduleRefresh();
  /// Forgets a dropped peer's summary.
  void Forget(NodeId peer) { peer_summaries_.erase(peer); }

  /// Direct peers whose summary proves no match for any DNF branch of
  /// `keyword` (empty when the query is unparsable), counted as skips.
  std::vector<NodeId> SkipSet(const std::string& keyword);

  /// Search launches that skipped a direct peer.
  uint64_t summary_skips() const { return summary_skips_.value(); }
  /// Direct peers whose content summary this node currently holds.
  size_t peer_summary_count() const { return peer_summaries_.size(); }

 private:
  /// The summary at the current index epoch (rebuilt when it moves).
  const storm::ContentSummary& OwnSummary();
  /// Sends the summary to every direct peer unless its epoch already
  /// went out.
  void Broadcast();
  void OnPeerSummary(NodeId src, storm::ContentSummary& summary);

  NodeIo& io_;
  const std::unique_ptr<storm::Storm>& storage_;
  const PeerList& peers_;
  std::map<NodeId, storm::ContentSummary> peer_summaries_;
  storm::ContentSummary own_summary_;
  bool own_summary_valid_ = false;
  uint64_t last_broadcast_epoch_ = 0;
  bool push_pending_ = false;
  metrics::Counter summary_skips_;
};

}  // namespace bestpeer::core

#endif  // BESTPEER_CORE_NODE_SUMMARIES_H_
