#include "util/bytes.h"

namespace bestpeer {

void BinaryWriter::AppendLe(const void* v, size_t n) {
  const auto* p = static_cast<const uint8_t*>(v);
  // Host is little-endian on all supported targets; copy bytes directly.
  buf_.insert(buf_.end(), p, p + n);
}

void BinaryWriter::WriteVarint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void BinaryWriter::WriteString(std::string_view s) {
  WriteVarint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void BinaryWriter::WriteBytes(const Bytes& b) {
  WriteVarint(b.size());
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void BinaryWriter::WriteRaw(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

Status BinaryReader::Need(size_t n) const {
  // Written so that no `n` read from the wire can wrap the sum.
  if (n > len_ - pos_) {
    return Status::OutOfRange("truncated input: need " + std::to_string(n) +
                              " bytes at offset " + std::to_string(pos_) +
                              " of " + std::to_string(len_));
  }
  return Status::OK();
}

Result<uint8_t> BinaryReader::ReadU8() {
  BP_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

Result<uint16_t> BinaryReader::ReadU16() {
  BP_RETURN_IF_ERROR(Need(2));
  uint16_t v;
  std::memcpy(&v, data_ + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

Result<uint32_t> BinaryReader::ReadU32() {
  BP_RETURN_IF_ERROR(Need(4));
  uint32_t v;
  std::memcpy(&v, data_ + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

Result<uint64_t> BinaryReader::ReadU64() {
  BP_RETURN_IF_ERROR(Need(8));
  uint64_t v;
  std::memcpy(&v, data_ + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

Result<int64_t> BinaryReader::ReadI64() {
  BP_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<uint64_t> BinaryReader::ReadVarint() {
  uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    BP_RETURN_IF_ERROR(Need(1));
    uint8_t b = data_[pos_++];
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
  return Status::Corruption("varint too long");
}

Result<std::string> BinaryReader::ReadString() {
  BP_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
  BP_RETURN_IF_ERROR(Need(n));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

Result<Bytes> BinaryReader::ReadBytes() {
  BP_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
  BP_RETURN_IF_ERROR(Need(n));
  Bytes out(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return out;
}

Status BinaryReader::ReadRaw(void* out, size_t n) {
  BP_RETURN_IF_ERROR(Need(n));
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return Status::OK();
}

Bytes ToBytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string ToString(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

}  // namespace bestpeer
