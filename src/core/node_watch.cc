#include "core/node_watch.h"

#include <utility>

namespace bestpeer::core {

PeerWatch::PeerWatch(NodeIo& io) : io_(io) {
  io_.Handle(kWatchReqType, "watch.request", this, &PeerWatch::OnWatchRequest);
  io_.Handle(kUpdateNotifyType, "update.notify", this,
             &PeerWatch::OnUpdateNotify);
}

void PeerWatch::WatchPeer(NodeId provider, UpdateCallback callback) {
  watching_[provider] = std::move(callback);
  io_.Send(provider, kWatchReqType, WatchRequest{.subscribe = true});
}

void PeerWatch::UnwatchPeer(NodeId provider) {
  watching_.erase(provider);
  io_.Send(provider, kWatchReqType, WatchRequest{.subscribe = false});
}

void PeerWatch::NotifyWatchers(UpdateNotifyMessage::Kind kind,
                               storm::ObjectId id) {
  if (watchers_.empty()) return;
  const Bytes encoded =
      UpdateNotifyMessage{.kind = kind, .object_id = id}.Encode();
  for (NodeId watcher : watchers_) {
    io_.Send(watcher, kUpdateNotifyType, encoded);
  }
}

void PeerWatch::OnWatchRequest(NodeId src, WatchRequest& req) {
  if (req.subscribe) {
    watchers_.insert(src);
  } else {
    watchers_.erase(src);
  }
}

void PeerWatch::OnUpdateNotify(NodeId src, UpdateNotifyMessage& notify) {
  auto it = watching_.find(src);
  if (it == watching_.end() || !it->second) return;
  it->second(src, notify.kind, notify.object_id);
}

}  // namespace bestpeer::core
