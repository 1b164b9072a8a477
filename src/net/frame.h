#ifndef BESTPEER_NET_FRAME_H_
#define BESTPEER_NET_FRAME_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "net/message.h"
#include "util/bytes.h"
#include "util/status.h"
#include "util/wire.h"

namespace bestpeer::net {

// Wire framing for the real TCP backend. Every message travels as one
// frame: a fixed header of kFrameOverheadBytes (the same constant the
// simulator charges as header_overhead, so simulated and real wire byte
// counts stay comparable) followed by `payload_len` payload bytes.
//
//   offset  size  field
//        0     4  magic        "BPF1" (0x31465042 little-endian)
//        4     2  version      kFrameVersion
//        6     2  flags        bit 0: trace-sampled; other bits must be zero
//        8     4  type         protocol message type tag
//       12     4  src          sender NodeId
//       16     4  dst          destination NodeId
//       20     8  flow         query/agent id for tracing (0 = none)
//       28     4  payload_len  bytes following the header
//       32     4  extra_wire   modelled-but-not-materialized bytes
//       36     8  sent_at_us   sender clock at encode; zero unless sampled
//       44    20  reserved     zero padding up to kFrameOverheadBytes
//
// `extra_wire` carries the simulator's `extra_wire_bytes` accounting
// (e.g. a shipped agent class) across the real wire without sending the
// phantom bytes themselves; receivers add it to their rx byte counters.
//
// The sampled flag propagates the distributed-tracing head decision: the
// process that originates a flow decides once (hash of the flow id vs
// the sample rate) and every downstream process records spans for
// exactly the flagged flows (DESIGN.md §12). `sent_at_us` rides along so
// the receiver can attribute wire time; it must be zero on unsampled
// frames, which keeps tracing-off wire bytes identical to version 1
// frames that predate the field.

constexpr uint32_t kFrameMagic = 0x31465042;  // "BPF1" in LE byte order.
constexpr uint16_t kFrameVersion = 1;
/// Frame flag bit 0: spans for this frame's flow are being recorded;
/// receivers must record theirs too (head-based sampling propagation).
constexpr uint16_t kFrameFlagSampled = 0x0001;
/// Every defined flag; any other bit set is treated as corruption.
constexpr uint16_t kFrameFlagsMask = kFrameFlagSampled;
/// Upper bound on a frame payload; a length field above this is treated
/// as stream corruption rather than an allocation request.
constexpr size_t kMaxFramePayload = 64u * 1024 * 1024;

struct FrameHeader {
  uint32_t type = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  FlowId flow = 0;
  uint32_t payload_len = 0;
  uint32_t extra_wire = 0;
  uint16_t flags = 0;
  /// Sender's clock (microseconds) at encode time; only carried on
  /// sampled frames (zero otherwise, enforced by the decoder).
  int64_t sent_at_us = 0;

  bool sampled() const { return (flags & kFrameFlagSampled) != 0; }

  static Status Wire(auto& m, auto& io) {
    return io(wire::Const<uint32_t>{kFrameMagic},
              wire::Const<uint16_t>{kFrameVersion}, m.flags, m.type, m.src,
              m.dst, m.flow, m.payload_len, m.extra_wire, m.sent_at_us,
              wire::Const<std::array<uint8_t, 20>>{});
  }
  /// Unknown flag bits, a timestamp on an unsampled frame and a payload
  /// length above kMaxFramePayload are corrupt.
  Status Check() const;
};

/// Serializes one message as header + payload, in one allocation. The
/// header's payload_len is the payload's size, and an unsampled header's
/// sent_at_us is written as zero.
Bytes EncodeFrame(const FrameHeader& header, const Bytes& payload);

/// Parses the frame header in the first kFrameOverheadBytes of `data`.
/// Rejects a shorter input, bad magic, unknown versions, nonzero
/// reserved bytes and whatever FrameHeader::Check rejects.
Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t len);

/// Incremental decoder for a TCP byte stream. Feed() appends raw bytes;
/// Next() extracts complete frames. A malformed header poisons the
/// decoder (the stream has lost sync, so the connection must be closed).
class FrameDecoder {
 public:
  void Feed(const uint8_t* data, size_t len);

  /// True: one frame extracted into *out_header / *out_payload.
  /// False: need more bytes. Error: stream is malformed; no further
  /// frames will be produced.
  Result<bool> Next(FrameHeader* out_header, Bytes* out_payload);

  size_t buffered() const { return buf_.size() - pos_; }

 private:
  Bytes buf_;
  size_t pos_ = 0;
  bool have_header_ = false;
  FrameHeader header_;
  bool poisoned_ = false;
};

}  // namespace bestpeer::net

#endif  // BESTPEER_NET_FRAME_H_
