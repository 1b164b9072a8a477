#include "net/frame.h"

#include <algorithm>

namespace bestpeer::net {

Status FrameHeader::Check() const {
  if ((flags & ~kFrameFlagsMask) != 0) {
    return Status::Corruption("unknown frame flags");
  }
  if (!sampled() && sent_at_us != 0) {
    // The timestamp field is part of the sampled extension; on plain
    // frames those bytes are still reserved-zero.
    return Status::Corruption("nonzero reserved bytes");
  }
  if (payload_len > kMaxFramePayload) {
    return Status::Corruption("frame payload length over limit");
  }
  return Status::OK();
}

Bytes EncodeFrame(const FrameHeader& header, const Bytes& payload) {
  FrameHeader h = header;
  h.payload_len = static_cast<uint32_t>(payload.size());
  if (!h.sampled()) h.sent_at_us = 0;
  wire::Writer writer(kFrameOverheadBytes + payload.size());
  (void)writer(h);
  Bytes out = writer.Take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t len) {
  return wire::Decode<FrameHeader>(data, std::min(len, kFrameOverheadBytes));
}

void FrameDecoder::Feed(const uint8_t* data, size_t len) {
  // Compact leading consumed bytes before growing; keeps the buffer at
  // roughly one frame regardless of how long the connection lives.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > kFrameOverheadBytes + kMaxFramePayload) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + len);
}

Result<bool> FrameDecoder::Next(FrameHeader* out_header, Bytes* out_payload) {
  if (poisoned_) return Status::Corruption("frame stream out of sync");
  if (!have_header_) {
    if (buf_.size() - pos_ < kFrameOverheadBytes) return false;
    auto header = DecodeFrameHeader(buf_.data() + pos_, kFrameOverheadBytes);
    if (!header.ok()) {
      poisoned_ = true;
      return header.status();
    }
    header_ = header.value();
    pos_ += kFrameOverheadBytes;
    have_header_ = true;
  }
  if (buf_.size() - pos_ < header_.payload_len) return false;
  *out_header = header_;
  out_payload->assign(buf_.begin() + static_cast<long>(pos_),
                      buf_.begin() + static_cast<long>(pos_ + header_.payload_len));
  pos_ += header_.payload_len;
  have_header_ = false;
  return true;
}

}  // namespace bestpeer::net
