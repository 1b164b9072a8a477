#ifndef BESTPEER_CORE_NODE_WATCH_H_
#define BESTPEER_CORE_NODE_WATCH_H_

#include <functional>
#include <map>
#include <set>

#include "core/messages.h"
#include "core/node_io.h"

namespace bestpeer::core {

/// Peer monitoring (§3.4): this node's subscriptions to other providers'
/// shared-store changes, and the notices it owes its own watchers. BPIDs
/// are what make this work: the watched peer stays the same logical peer
/// across address changes.
class PeerWatch {
 public:
  /// Fires at a watcher for every store change at a watched provider.
  using UpdateCallback = std::function<void(
      NodeId provider, UpdateNotifyMessage::Kind kind,
      storm::ObjectId object_id)>;

  explicit PeerWatch(NodeIo& io);

  /// Subscribes to `provider`'s shared-store changes; notifications call
  /// `callback`.
  void WatchPeer(NodeId provider, UpdateCallback callback);
  /// Cancels a subscription.
  void UnwatchPeer(NodeId provider);
  /// Subscribers currently watching this node.
  size_t watcher_count() const { return watchers_.size(); }
  /// Tells every watcher that shared object `id` changed.
  void NotifyWatchers(UpdateNotifyMessage::Kind kind, storm::ObjectId id);

 private:
  void OnWatchRequest(NodeId src, WatchRequest& req);
  void OnUpdateNotify(NodeId src, UpdateNotifyMessage& notify);

  NodeIo& io_;
  std::set<NodeId> watchers_;
  std::map<NodeId, UpdateCallback> watching_;
};

}  // namespace bestpeer::core

#endif  // BESTPEER_CORE_NODE_WATCH_H_
