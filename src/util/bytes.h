#ifndef BESTPEER_UTIL_BYTES_H_
#define BESTPEER_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace bestpeer {

/// A growable byte buffer used for message and page serialization.
using Bytes = std::vector<uint8_t>;

/// Serializes integers (little-endian / varint), strings and blobs into a
/// Bytes buffer. util/wire.h writes every message, frame, agent state and
/// WAL record through it and reads them back with BinaryReader; the LZSS
/// codec uses both directly.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  /// Reserves room for `n` bytes, so a writer that knows its output size
  /// allocates once.
  void Reserve(size_t n) { buf_.reserve(n); }

  /// Appends a single byte.
  void WriteU8(uint8_t v) { buf_.push_back(v); }

  /// Appends fixed-width little-endian integers.
  void WriteU16(uint16_t v) { AppendLe(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { AppendLe(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { AppendLe(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }

  /// Appends an unsigned LEB128 varint (1-10 bytes).
  void WriteVarint(uint64_t v);

  /// Appends a length-prefixed (varint) string.
  void WriteString(std::string_view s);

  /// Appends a length-prefixed (varint) blob.
  void WriteBytes(const Bytes& b);

  /// Appends raw bytes with no length prefix.
  void WriteRaw(const void* data, size_t len);

  /// The accumulated buffer.
  const Bytes& buffer() const { return buf_; }

  /// Moves the accumulated buffer out of the writer.
  Bytes Take() { return std::move(buf_); }

  /// Number of bytes written so far.
  size_t size() const { return buf_.size(); }

 private:
  void AppendLe(const void* v, size_t n);

  Bytes buf_;
};

/// Reads values written by BinaryWriter. All methods return an error Status
/// (never crash) on truncated or malformed input, so wire data from "remote"
/// peers can be parsed defensively.
class BinaryReader {
 public:
  /// The reader does not own the data; it must outlive the reader.
  explicit BinaryReader(const Bytes& data) : data_(data.data()), len_(data.size()) {}
  BinaryReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<uint64_t> ReadVarint();
  Result<std::string> ReadString();
  Result<Bytes> ReadBytes();

  /// Copies the next `n` raw bytes (no length prefix) into `out`.
  Status ReadRaw(void* out, size_t n);

  /// Bytes remaining to be read.
  size_t remaining() const { return len_ - pos_; }

  /// Current read offset.
  size_t position() const { return pos_; }

  /// True iff all input has been consumed.
  bool AtEnd() const { return pos_ == len_; }

 private:
  Status Need(size_t n) const;

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

/// Converts a string to a byte vector (UTF-8 bytes, no terminator).
Bytes ToBytes(std::string_view s);

/// Converts a byte vector to a string.
std::string ToString(const Bytes& b);

}  // namespace bestpeer

#endif  // BESTPEER_UTIL_BYTES_H_
