#include "core/messages.h"

#include "storm/storm.h"

namespace bestpeer::core {

namespace {

void EncodeItems(BinaryWriter& w, const std::vector<ResultItem>& items) {
  w.WriteVarint(items.size());
  for (const auto& item : items) {
    w.WriteU64(item.id);
    w.WriteString(item.name);
    w.WriteBytes(item.content);
  }
}

/// Reads an element count; every element takes at least one byte, so a
/// count past the remaining payload is corrupt (and must not size a
/// reserve).
Result<uint64_t> ReadCount(BinaryReader& r) {
  BP_ASSIGN_OR_RETURN(uint64_t n, r.ReadVarint());
  if (n > r.remaining()) return Status::Corruption("count exceeds payload");
  return n;
}

Result<std::vector<ResultItem>> DecodeItems(BinaryReader& r) {
  BP_ASSIGN_OR_RETURN(uint64_t n, ReadCount(r));
  std::vector<ResultItem> items;
  items.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ResultItem item;
    BP_ASSIGN_OR_RETURN(item.id, r.ReadU64());
    BP_ASSIGN_OR_RETURN(item.name, r.ReadString());
    BP_ASSIGN_OR_RETURN(item.content, r.ReadBytes());
    items.push_back(std::move(item));
  }
  return items;
}

}  // namespace

Result<ResultItem> ReadShared(storm::Storm& store, storm::ObjectId id) {
  BP_ASSIGN_OR_RETURN(Bytes content, store.Get(id));
  return ResultItem{id, "obj-" + std::to_string(id), std::move(content)};
}

Bytes SearchResultMessage::Encode() const {
  BinaryWriter w;
  w.WriteU64(query_id);
  w.WriteU16(hops);
  w.WriteU8(mode);
  w.WriteU32(responder_object_count);
  EncodeItems(w, items);
  // Trailing optional section: written only when the result cache is on
  // (epoch is then always nonzero), so cache-off messages stay
  // byte-identical to the pre-cache encoding.
  if (cache_epoch != 0) {
    w.WriteVarint(cache_epoch);
    w.WriteU8(cache_flags);
  }
  return w.Take();
}

Result<SearchResultMessage> SearchResultMessage::Decode(const Bytes& data) {
  BinaryReader r(data);
  SearchResultMessage m;
  BP_ASSIGN_OR_RETURN(m.query_id, r.ReadU64());
  BP_ASSIGN_OR_RETURN(m.hops, r.ReadU16());
  BP_ASSIGN_OR_RETURN(m.mode, r.ReadU8());
  BP_ASSIGN_OR_RETURN(m.responder_object_count, r.ReadU32());
  BP_ASSIGN_OR_RETURN(m.items, DecodeItems(r));
  if (!r.AtEnd()) {
    BP_ASSIGN_OR_RETURN(m.cache_epoch, r.ReadVarint());
    BP_ASSIGN_OR_RETURN(m.cache_flags, r.ReadU8());
  }
  return m;
}

Bytes CacheReplicaPushMessage::Encode() const {
  BinaryWriter w;
  w.WriteVarint(source_epoch);
  w.WriteI64(ttl);
  EncodeItems(w, items);
  return w.Take();
}

Result<CacheReplicaPushMessage> CacheReplicaPushMessage::Decode(
    const Bytes& data) {
  BinaryReader r(data);
  CacheReplicaPushMessage m;
  BP_ASSIGN_OR_RETURN(m.source_epoch, r.ReadVarint());
  BP_ASSIGN_OR_RETURN(m.ttl, r.ReadI64());
  BP_ASSIGN_OR_RETURN(m.items, DecodeItems(r));
  return m;
}

Bytes DataShipRequest::Encode() const {
  BinaryWriter w;
  w.WriteU64(query_id);
  return w.Take();
}

Result<DataShipRequest> DataShipRequest::Decode(const Bytes& data) {
  BinaryReader r(data);
  DataShipRequest m;
  BP_ASSIGN_OR_RETURN(m.query_id, r.ReadU64());
  return m;
}

Bytes FetchRequestMessage::Encode() const {
  BinaryWriter w;
  w.WriteU64(query_id);
  w.WriteVarint(ids.size());
  for (auto id : ids) w.WriteU64(id);
  return w.Take();
}

Result<FetchRequestMessage> FetchRequestMessage::Decode(const Bytes& data) {
  BinaryReader r(data);
  FetchRequestMessage m;
  BP_ASSIGN_OR_RETURN(m.query_id, r.ReadU64());
  BP_ASSIGN_OR_RETURN(uint64_t n, ReadCount(r));
  m.ids.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    BP_ASSIGN_OR_RETURN(storm::ObjectId id, r.ReadU64());
    m.ids.push_back(id);
  }
  return m;
}

Bytes FetchResponseMessage::Encode() const {
  BinaryWriter w;
  w.WriteU64(query_id);
  EncodeItems(w, items);
  return w.Take();
}

Result<FetchResponseMessage> FetchResponseMessage::Decode(
    const Bytes& data) {
  BinaryReader r(data);
  FetchResponseMessage m;
  BP_ASSIGN_OR_RETURN(m.query_id, r.ReadU64());
  BP_ASSIGN_OR_RETURN(m.items, DecodeItems(r));
  return m;
}

Bytes WatchRequest::Encode() const {
  BinaryWriter w;
  w.WriteU8(subscribe ? 1 : 0);
  return w.Take();
}

Result<WatchRequest> WatchRequest::Decode(const Bytes& data) {
  BinaryReader r(data);
  WatchRequest m;
  BP_ASSIGN_OR_RETURN(uint8_t sub, r.ReadU8());
  m.subscribe = sub != 0;
  return m;
}

Bytes UpdateNotifyMessage::Encode() const {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(kind));
  w.WriteU64(object_id);
  return w.Take();
}

Result<UpdateNotifyMessage> UpdateNotifyMessage::Decode(const Bytes& data) {
  BinaryReader r(data);
  UpdateNotifyMessage m;
  BP_ASSIGN_OR_RETURN(uint8_t kind, r.ReadU8());
  if (kind > 2) return Status::Corruption("bad update-notify kind");
  m.kind = static_cast<Kind>(kind);
  BP_ASSIGN_OR_RETURN(m.object_id, r.ReadU64());
  return m;
}

Bytes ActiveObjectRequest::Encode() const {
  BinaryWriter w;
  w.WriteU64(request_id);
  w.WriteString(object_name);
  w.WriteU8(access_level);
  return w.Take();
}

Result<ActiveObjectRequest> ActiveObjectRequest::Decode(const Bytes& data) {
  BinaryReader r(data);
  ActiveObjectRequest m;
  BP_ASSIGN_OR_RETURN(m.request_id, r.ReadU64());
  BP_ASSIGN_OR_RETURN(m.object_name, r.ReadString());
  BP_ASSIGN_OR_RETURN(m.access_level, r.ReadU8());
  return m;
}

Bytes ActiveObjectResponse::Encode() const {
  BinaryWriter w;
  w.WriteU64(request_id);
  w.WriteU8(ok ? 1 : 0);
  w.WriteBytes(content);
  return w.Take();
}

Result<ActiveObjectResponse> ActiveObjectResponse::Decode(
    const Bytes& data) {
  BinaryReader r(data);
  ActiveObjectResponse m;
  BP_ASSIGN_OR_RETURN(m.request_id, r.ReadU64());
  BP_ASSIGN_OR_RETURN(uint8_t ok, r.ReadU8());
  m.ok = ok != 0;
  BP_ASSIGN_OR_RETURN(m.content, r.ReadBytes());
  return m;
}

}  // namespace bestpeer::core
