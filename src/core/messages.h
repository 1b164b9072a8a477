#ifndef BESTPEER_CORE_MESSAGES_H_
#define BESTPEER_CORE_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storm/object_store.h"
#include "util/ids.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/wire.h"

namespace bestpeer::storm {
class Storm;
}  // namespace bestpeer::storm

namespace bestpeer::core {

/// BestPeer wire message types (agent transfers use
/// agent::kAgentTransferType).
constexpr uint32_t kSearchResultType = 0x42500001;
constexpr uint32_t kFetchReqType = 0x42500002;
constexpr uint32_t kFetchRespType = 0x42500003;
constexpr uint32_t kActiveObjReqType = 0x42500004;
constexpr uint32_t kActiveObjRespType = 0x42500005;
constexpr uint32_t kPeerConnectType = 0x42500006;
constexpr uint32_t kPeerDisconnectType = 0x42500007;
constexpr uint32_t kDataShipReqType = 0x42500008;
constexpr uint32_t kDataShipRespType = 0x42500009;
constexpr uint32_t kWatchReqType = 0x4250000B;
constexpr uint32_t kUpdateNotifyType = 0x4250000C;
constexpr uint32_t kCacheReplicaPushType = 0x4250000D;
/// Carries an encoded storm::ContentSummary: a peer's Bloom filter and
/// top keywords over its shared store's keyword index, sent at connect and
/// reconfiguration time and re-broadcast when the sender's index epoch
/// moves. The receiving base node skips direct peers whose summary
/// provably excludes every DNF branch of a query.
constexpr uint32_t kPeerSummaryType = 0x4250000E;

/// One matched object inside a result or fetch response. Mode-1 results
/// and fetch responses carry content; mode-2 results carry name only.
struct ResultItem {
  storm::ObjectId id = 0;
  std::string name;
  Bytes content;

  static Status Wire(auto& m, auto& io) {
    return io(m.id, m.name, m.content);
  }
};

/// The shared object `id` of `store` as a result item with its content
/// (fails when not stored).
Result<ResultItem> ReadShared(storm::Storm& store, storm::ObjectId id);

/// A search result sent *directly* to the base node by a peer whose store
/// matched the query (out-of-network return, paper §2). Carries the Hops
/// value piggybacked for the MinHops strategy (§3.3).
struct SearchResultMessage {
  uint64_t query_id = 0;
  uint16_t hops = 0;
  uint8_t mode = 1;
  /// Size of the responder's shared store; the initiator uses it as the
  /// store-size hint for adaptive shipping.
  uint32_t responder_object_count = 0;
  std::vector<ResultItem> items;
  /// Responder's IndexEpoch (storm mutation epoch + 1) at serve time.
  /// 0 = result caching off; the fields below are then absent on the
  /// wire, keeping cache-off encodings byte-identical to older builds.
  uint64_t cache_epoch = 0;
  /// Bit 0 (kCacheNotModified): the base already holds this responder's
  /// answers for this query at exactly `cache_epoch`; `items` is empty
  /// and the base re-materializes the answer from its cached slice.
  uint8_t cache_flags = 0;

  static constexpr uint8_t kCacheNotModified = 0x01;

  static Status Wire(auto& m, auto& io) {
    BP_RETURN_IF_ERROR(
        io(m.query_id, m.hops, m.mode, m.responder_object_count, m.items));
    // Trailing optional section: written only when the result cache is on
    // (epoch is then always nonzero), so cache-off messages stay
    // byte-identical to the pre-cache encoding.
    if (!io.Optional(m.cache_epoch != 0)) return Status::OK();
    return io(wire::Varint(m.cache_epoch), m.cache_flags);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<SearchResultMessage> Decode(const Bytes& data) {
    return wire::Decode<SearchResultMessage>(data);
  }
};

/// Replica push. A hot-answer push (result-cache subsystem) copies the
/// objects behind a frequently served answer to a direct peer, so the
/// next query finds them at hop 1; its copies are leased, carry a TTL and
/// expire at the receiver (churn safety). A §6 ReplicateObjects push
/// (source_epoch 0) places copies the receiver keeps as its own.
struct CacheReplicaPushMessage {
  /// Pusher's IndexEpoch when the objects were read (storm mutation
  /// epoch + 1, so never 0 for a hot push); 0 marks a lease-less push.
  uint64_t source_epoch = 0;
  /// Receiver-side lifetime (0 = no expiry).
  int64_t ttl = 0;
  std::vector<ResultItem> items;

  static Status Wire(auto& m, auto& io) {
    return io(wire::Varint(m.source_epoch), m.ttl, m.items);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<CacheReplicaPushMessage> Decode(const Bytes& data) {
    return wire::Decode<CacheReplicaPushMessage>(data);
  }
};

/// Data-shipping request (§6 future work): pull the peer's entire shared
/// store so the requester can scan it locally.
struct DataShipRequest {
  uint64_t query_id = 0;

  static Status Wire(auto& m, auto& io) { return io(m.query_id); }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<DataShipRequest> Decode(const Bytes& data) {
    return wire::Decode<DataShipRequest>(data);
  }
};

/// Mode-2 follow-up: the initiator asks a responder for object contents.
struct FetchRequestMessage {
  uint64_t query_id = 0;
  std::vector<storm::ObjectId> ids;

  static Status Wire(auto& m, auto& io) { return io(m.query_id, m.ids); }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<FetchRequestMessage> Decode(const Bytes& data) {
    return wire::Decode<FetchRequestMessage>(data);
  }
};

/// Contents served for a FetchRequestMessage.
struct FetchResponseMessage {
  uint64_t query_id = 0;
  std::vector<ResultItem> items;

  static Status Wire(auto& m, auto& io) { return io(m.query_id, m.items); }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<FetchResponseMessage> Decode(const Bytes& data) {
    return wire::Decode<FetchResponseMessage>(data);
  }
};

/// The peer's store contents, shipped back for local processing: a fetch
/// response for every object the peer shares.
using DataShipResponse = FetchResponseMessage;

/// Watch subscription: the sender wants kUpdateNotifyType messages when
/// the receiver's shared store changes (§3.4: "a node may particularly
/// be interested in monitoring the updates of a set of peers").
struct WatchRequest {
  bool subscribe = true;  // false = unsubscribe.

  static Status Wire(auto& m, auto& io) { return io(m.subscribe); }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<WatchRequest> Decode(const Bytes& data) {
    return wire::Decode<WatchRequest>(data);
  }
};

/// Pushed to watchers when a shared object is added/updated/removed.
struct UpdateNotifyMessage {
  enum class Kind : uint8_t { kAdded = 0, kUpdated = 1, kRemoved = 2 };
  Kind kind = Kind::kAdded;
  storm::ObjectId object_id = 0;

  static Status Wire(auto& m, auto& io) {
    return io(wire::Enum(m.kind, Kind::kAdded, Kind::kRemoved), m.object_id);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<UpdateNotifyMessage> Decode(const Bytes& data) {
    return wire::Decode<UpdateNotifyMessage>(data);
  }
};

/// Request to render a named active object at `level` access.
struct ActiveObjectRequest {
  uint64_t request_id = 0;
  std::string object_name;
  uint8_t access_level = 0;

  static Status Wire(auto& m, auto& io) {
    return io(m.request_id, m.object_name, m.access_level);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<ActiveObjectRequest> Decode(const Bytes& data) {
    return wire::Decode<ActiveObjectRequest>(data);
  }
};

/// Rendered active-object content (or an error flag).
struct ActiveObjectResponse {
  uint64_t request_id = 0;
  bool ok = false;
  Bytes content;

  static Status Wire(auto& m, auto& io) {
    return io(m.request_id, m.ok, m.content);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<ActiveObjectResponse> Decode(const Bytes& data) {
    return wire::Decode<ActiveObjectResponse>(data);
  }
};

}  // namespace bestpeer::core

#endif  // BESTPEER_CORE_MESSAGES_H_
