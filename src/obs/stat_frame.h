#ifndef BESTPEER_OBS_STAT_FRAME_H_
#define BESTPEER_OBS_STAT_FRAME_H_

#include <concepts>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>

#include "util/bytes.h"
#include "util/metrics.h"
#include "util/result.h"
#include "util/status.h"
#include "util/wire.h"

namespace bestpeer::obs {

/// Message type tag for fleet stat frames: nodes periodically push a
/// compact serialized metrics snapshot to a collector, which merges the
/// frames (metrics::Snapshot::Merge) and serves the fleet-wide `/fleet`
/// rollup. Travels over any net::Transport like every other protocol
/// message (one BPF1 frame on the TCP backend).
constexpr uint32_t kStatFrameMsgType = 0x42530001;  // "BS" + 1.

/// Payload format version (first byte after the magic).
constexpr uint16_t kStatFrameVersion = 1;
constexpr uint32_t kStatFrameMagic = 0x31535042;  // "BPS1" in LE order.

/// Decode-side hard limits: a length field beyond these is treated as
/// corruption, not an allocation request (mirrors net::FrameDecoder).
constexpr size_t kStatFrameMaxEntries = 4096;
constexpr size_t kStatFrameMaxLabels = 16;
constexpr size_t kStatFrameMaxNameLen = 256;
constexpr size_t kStatFrameMaxBuckets = 256;

}  // namespace bestpeer::obs

namespace bestpeer::metrics {

/// Wire layout of one snapshot entry inside a stat frame (found by
/// util/wire.h through argument-dependent lookup). A histogram with
/// bucket detail has bounds+1 buckets, so at most kStatFrameMaxBuckets + 1.
template <typename E>
  requires std::same_as<std::remove_const_t<E>, SnapshotEntry>
Status Wire(E& e, auto& io) {
  return io(e.name,
            wire::Enum(e.kind, InstrumentKind::kCounter,
                       InstrumentKind::kHistogram),
            wire::Max(e.labels, obs::kStatFrameMaxLabels), e.value,
            wire::Varint(e.count), e.min, e.max,
            wire::Max(e.bounds, obs::kStatFrameMaxBuckets),
            wire::Max(wire::Varint(e.buckets), obs::kStatFrameMaxBuckets + 1));
}

}  // namespace bestpeer::metrics

namespace bestpeer::obs {

/// One node's pushed stats: who it is and its metrics at push time.
struct StatFrame {
  uint32_t node = 0xFFFFFFFF;
  /// Microseconds on the sender's clock when the frame was built.
  int64_t sent_at_us = 0;
  metrics::Snapshot snapshot;

  static Status Wire(auto& m, auto& io) {
    return io(wire::Const<uint32_t>{kStatFrameMagic},
              wire::Const<uint16_t>{kStatFrameVersion}, m.node, m.sent_at_us,
              wire::Max(m.snapshot.entries, kStatFrameMaxEntries));
  }
  /// The name and label length limits above, and bounds+1 buckets per
  /// entry with bucket detail.
  Status Check() const;
};

/// Serializes a stat frame (magic, version, node, timestamp, entries with
/// kind/labels/value/count/min/max and histogram bucket detail).
Bytes EncodeStatFrame(const StatFrame& frame);

/// Bounds-checked decode (util/wire.h); any truncation, bad
/// magic/version, over-limit length or trailing byte returns an error
/// Status (never UB, never a huge allocation).
Result<StatFrame> DecodeStatFrame(const Bytes& payload);

/// Collector-side state for the fleet rollup: remembers the latest frame
/// per node and merges them on demand. Single-threaded like everything
/// else on the reactor; the caller decides where frames come from
/// (a dispatcher handler in bestpeerd).
class FleetCollector {
 public:
  /// Installs/replaces `frame` as node's latest (stale guard: frames
  /// with an older sent_at_us than the stored one are dropped and
  /// counted). `received_at_us` is the collector's clock, used for the
  /// age column in the rollup.
  void Absorb(StatFrame frame, int64_t received_at_us);

  /// Every node's latest snapshot merged into one fleet-wide snapshot.
  metrics::Snapshot Rollup() const;

  /// {"nodes":N,"frames":F,"stale_dropped":S,"per_node":{"<id>":
  ///  {"age_us":..,"metrics":{...}}},"merged":{...}} — the `/fleet`
  /// endpoint body. `now_us` is the collector's current clock.
  std::string ToJson(int64_t now_us) const;

  size_t node_count() const { return latest_.size(); }
  uint64_t frames_received() const { return frames_received_; }
  uint64_t stale_dropped() const { return stale_dropped_; }

 private:
  struct NodeState {
    StatFrame frame;
    int64_t received_at_us = 0;
  };
  std::map<uint32_t, NodeState> latest_;
  uint64_t frames_received_ = 0;
  uint64_t stale_dropped_ = 0;
};

}  // namespace bestpeer::obs

#endif  // BESTPEER_OBS_STAT_FRAME_H_
