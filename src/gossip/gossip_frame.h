#ifndef BESTPEER_GOSSIP_GOSSIP_FRAME_H_
#define BESTPEER_GOSSIP_GOSSIP_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"
#include "util/wire.h"

namespace bestpeer::gossip {

/// Message type tag for gossip frames. Like every other protocol message
/// it travels over net::Transport, so the same rounds run over the
/// simulator and real TCP.
constexpr uint32_t kGossipMsgType = 0x42470001;  // "BG" + 1.

/// Payload format version (first field after the magic).
constexpr uint16_t kGossipFrameVersion = 1;
constexpr uint32_t kGossipFrameMagic = 0x31475042;  // "BPG1" in LE order.

/// Decode-side hard limit: an item count beyond this is treated as
/// corruption, not an allocation request (mirrors StatFrame).
constexpr size_t kGossipFrameMaxItems = 4096;

/// What a gossip item asserts about its origin node.
enum class ItemKind : uint8_t {
  /// `origin`'s StorM IndexEpoch is `payload` (version == payload, so
  /// newer epochs always win the version-vector comparison).
  kIndexEpoch = 1,
  /// `origin` (the pusher) granted a replica lease on object `subject`
  /// to node `holder`; `payload` is the pusher's IndexEpoch at push time.
  kLeaseGrant = 2,
  /// `origin` (the holder) expired or revoked its lease on object
  /// `subject`; `payload` is the lease generation that ended.
  kLeaseExpire = 3,
};

/// One rumor: a versioned fact about `origin`. The tuple
/// (kind, origin, subject, holder) is the version-vector key; `version`
/// is monotonic per key and decided by the fact's origin, so replaying
/// an older version is always a suppressible duplicate.
struct GossipItem {
  ItemKind kind = ItemKind::kIndexEpoch;
  uint32_t origin = 0;
  uint64_t subject = 0;  ///< Object id for leases; 0 for epochs.
  uint32_t holder = 0;   ///< Lease holder node; 0 for epochs.
  uint64_t version = 0;
  uint64_t payload = 0;

  static Status Wire(auto& m, auto& io) {
    return io(wire::Enum(m.kind, ItemKind::kIndexEpoch, ItemKind::kLeaseExpire),
              m.origin, m.subject, m.holder, m.version, m.payload);
  }
};

/// One push (or pull-back) of rumors between two gossip agents.
struct GossipFrame {
  /// The response bit suppresses a reply to the reply: a push earns at
  /// most one pull-back, never a ping-pong loop.
  static constexpr uint8_t kFlagResponse = 0x01;

  uint32_t sender = 0xFFFFFFFF;
  uint64_t round = 0;
  uint8_t flags = 0;
  std::vector<GossipItem> items;

  static Status Wire(auto& m, auto& io) {
    return io(wire::Const<uint32_t>{kGossipFrameMagic},
              wire::Const<uint16_t>{kGossipFrameVersion}, m.sender, m.round,
              m.flags, wire::Max(m.items, kGossipFrameMaxItems));
  }
  /// Unknown flag bits are corrupt.
  Status Check() const;
};

/// Serializes a gossip frame (magic, version, sender, round, flags,
/// items).
Bytes EncodeGossipFrame(const GossipFrame& frame);

/// Bounds-checked decode (util/wire.h); any truncation, bad
/// magic/version, unknown flag bit or item kind, over-limit count or
/// trailing byte returns an error Status (never UB, never a huge
/// allocation).
Result<GossipFrame> DecodeGossipFrame(const Bytes& payload);

}  // namespace bestpeer::gossip

#endif  // BESTPEER_GOSSIP_GOSSIP_FRAME_H_
