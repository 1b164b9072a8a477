#include "gossip/gossip_frame.h"

namespace bestpeer::gossip {

Status GossipFrame::Check() const {
  if ((flags & ~kFlagResponse) != 0) {
    return Status::InvalidArgument("gossip frame: unknown flags");
  }
  return Status::OK();
}

Bytes EncodeGossipFrame(const GossipFrame& frame) {
  return wire::Encode(frame);
}

Result<GossipFrame> DecodeGossipFrame(const Bytes& payload) {
  return wire::Decode<GossipFrame>(payload);
}

}  // namespace bestpeer::gossip
