#ifndef BESTPEER_CORE_NODE_SHIPPING_H_
#define BESTPEER_CORE_NODE_SHIPPING_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "agent/agent_registry.h"
#include "agent/agent_runtime.h"
#include "core/messages.h"
#include "core/node_io.h"
#include "core/peer_list.h"
#include "core/session.h"
#include "core/shipping.h"
#include "storm/storm.h"
#include "util/metrics.h"

namespace bestpeer::core {

/// Object shipping: mode-2 content fetches (§2), the one-hop search that
/// picks per peer between shipping the agent and pulling the peer's store
/// (§6 future work), and the store-size hints that choice reads.
class ObjectShipping {
 public:
  /// `storage` is the node's store slot (empty until InitStorage).
  ObjectShipping(NodeIo& io, const std::unique_ptr<storm::Storm>& storage,
                 const PeerList& peers, SessionTable& sessions,
                 agent::AgentRuntime& runtime,
                 const agent::CodeCache& code_cache,
                 metrics::Registry* metrics);

  /// Explicit mode-2 content fetch from `responder` (auto_fetch does this
  /// automatically on descriptor arrival).
  void FetchObjects(NodeId responder, uint64_t query_id,
                    const std::vector<storm::ObjectId>& ids);

  /// One-hop search over the direct peers, choosing per peer between
  /// code shipping (send the agent) and data shipping (pull the store and
  /// scan locally). Adaptive mode uses each peer's last known store size;
  /// unknown peers default to code shipping.
  Result<uint64_t> IssueDirectSearch(const std::string& keyword,
                                     ShippingMode mode);

  /// Last known shared-store size of `node` (0 = unknown).
  size_t StoreSizeHint(NodeId node) const;
  /// Records a store size learned from `node`'s search result.
  void NoteStoreSize(NodeId node, size_t objects) {
    store_size_hints_[node] = objects;
  }

 private:
  void OnFetchRequest(NodeId src, FetchRequestMessage& req);
  void OnFetchResponse(NodeId src, FetchResponseMessage& resp);
  void OnDataShipRequest(NodeId src, DataShipRequest& req);
  void OnDataShipResponse(NodeId src, DataShipResponse& resp);
  /// Reads `ids` from the store, charges kFetchPerObjectCost per id, then
  /// replies to `requester` with the objects as message type `type`.
  void Serve(NodeId requester, uint32_t type, const char* span,
             uint64_t query_id, const std::vector<storm::ObjectId>& ids);

  NodeIo& io_;
  const std::unique_ptr<storm::Storm>& storage_;
  const PeerList& peers_;
  SessionTable& sessions_;
  agent::AgentRuntime& runtime_;
  const agent::CodeCache& code_cache_;
  std::map<NodeId, size_t> store_size_hints_;
  metrics::Counter* fetches_issued_c_ = metrics::Counter::Noop();
};

}  // namespace bestpeer::core

#endif  // BESTPEER_CORE_NODE_SHIPPING_H_
