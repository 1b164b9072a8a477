#ifndef BESTPEER_CORE_NODE_ACTIVE_OBJECTS_H_
#define BESTPEER_CORE_NODE_ACTIVE_OBJECTS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "core/active_object.h"
#include "core/messages.h"
#include "core/node_io.h"

namespace bestpeer::core {

/// Active-object sharing (§3.2.2): objects this node renders per access
/// level on request, and its own requests for other providers' objects.
class ActiveObjects {
 public:
  using ContentCallback = std::function<void(Result<Bytes>)>;

  explicit ActiveObjects(NodeIo& io);

  /// The active nodes this node's objects resolve when rendered.
  ActiveNodeRegistry& active_nodes() { return active_nodes_; }

  /// Shares an active object under `name`.
  void ShareActiveObject(const std::string& name, ActiveObject object);

  /// Requests the rendering of `provider`'s active object for `level`.
  void RequestActiveObject(NodeId provider, const std::string& name,
                           AccessLevel level, ContentCallback callback);

 private:
  void OnRequest(NodeId src, ActiveObjectRequest& req);
  void OnResponse(NodeId src, ActiveObjectResponse& resp);

  NodeIo& io_;
  ActiveNodeRegistry active_nodes_;
  std::map<std::string, ActiveObject> objects_;
  std::map<uint64_t, ContentCallback> pending_;
  uint64_t request_counter_ = 0;
};

}  // namespace bestpeer::core

#endif  // BESTPEER_CORE_NODE_ACTIVE_OBJECTS_H_
