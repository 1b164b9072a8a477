#ifndef BESTPEER_UTIL_WIRE_H_
#define BESTPEER_UTIL_WIRE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"
#include "util/status.h"

/// One codec for every message format. A wire struct lists its fields once,
/// in wire order, and both directions walk that list:
///
///   struct PeerEntry {
///     Bpid bpid;
///     IpAddress ip = kInvalidIp;
///     static Status Wire(auto& m, auto& io) { return io(m.bpid, m.ip); }
///   };
///
/// wire::Encode runs the list through a Writer and wire::Decode through a
/// Reader, so the two can never disagree about the layout. A type owned by
/// another module gets a free function `Status Wire(T& m, auto& io)` in its
/// own namespace instead of the member; argument-dependent lookup finds it.
///
/// Field kinds, by type:
///   bool                      one byte; any nonzero byte reads as true
///   integers                  fixed width, little-endian
///   double                    its 64-bit pattern
///   std::string, Bytes        varint length, then the bytes
///   std::array<uint8_t, N>    N raw bytes
///   std::vector<T>            varint count, then each element
///   std::pair<A, B>           A, then B
///   a struct                  its own field list
/// and by marker:
///   Varint(x)                 a uint64_t, or each uint64_t of a vector, as
///                             an LEB128 varint
///   Max(v, n)                 a vector, or a Varint of one, of at most n
///                             elements
///   Enum(x, lo, hi)           a one-byte enum whose value lies in [lo, hi]
///   Const<T>{v}               a magic, version or reserved field that
///                             must read v
///   io.Optional(present)      gates one trailing section: written iff
///                             `present`, read iff bytes remain
///
/// Decoding applies the same rules to every format: truncation fails; a
/// count larger than the bytes left, or than its Max, fails before any
/// element is stored (elements are appended as they parse, so memory
/// follows the input); an enum byte out of range or a constant that reads
/// back different fails; and trailing bytes fail. A struct may add
/// `Status Check() const` for rules that are not layout (name lengths,
/// cross-field constraints); the Reader calls it right after the struct's
/// fields.
namespace bestpeer::wire {

template <typename T>
struct VarintField {
  T& v;
};
template <typename T>
VarintField<T> Varint(T& v) {
  return {v};
}

template <typename F>
struct MaxField {
  F field;
  uint64_t max;
};
template <typename F>
MaxField<F> Max(F&& field, uint64_t max) {
  return {std::forward<F>(field), max};
}

template <typename E>
struct EnumField {
  E& v;
  uint8_t lo;
  uint8_t hi;
};
template <typename E>
EnumField<E> Enum(E& v, std::remove_const_t<E> lo, std::remove_const_t<E> hi) {
  return {v, static_cast<uint8_t>(lo), static_cast<uint8_t>(hi)};
}

template <typename T>
struct Const {
  T value;
};

/// Runs `m`'s field list: its static Wire member, else a free Wire found
/// by argument-dependent lookup.
template <typename M, typename IO>
Status Fields(M& m, IO& io) {
  if constexpr (requires { std::remove_const_t<M>::Wire(m, io); }) {
    return std::remove_const_t<M>::Wire(m, io);
  } else {
    return Wire(m, io);
  }
}

/// Appends each field to a buffer; never fails.
class Writer {
 public:
  Writer() = default;
  /// Reserves `reserve` bytes up front (a frame header plus its payload).
  explicit Writer(size_t reserve) { out_.Reserve(reserve); }

  template <typename... F>
  Status operator()(const F&... fields) {
    (Put(fields), ...);
    return Status::OK();
  }
  bool Optional(bool present) const { return present; }
  Bytes Take() { return out_.Take(); }

 private:
  template <typename T>
  void Put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      out_.WriteU8(v ? 1 : 0);
    } else if constexpr (std::is_integral_v<T>) {
      if constexpr (sizeof(T) == 1) {
        out_.WriteU8(static_cast<uint8_t>(v));
      } else if constexpr (sizeof(T) == 2) {
        out_.WriteU16(static_cast<uint16_t>(v));
      } else if constexpr (sizeof(T) == 4) {
        out_.WriteU32(static_cast<uint32_t>(v));
      } else {
        out_.WriteU64(static_cast<uint64_t>(v));
      }
    } else if constexpr (std::is_same_v<T, double>) {
      out_.WriteU64(std::bit_cast<uint64_t>(v));
    } else {
      (void)Fields(v, *this);
    }
  }
  void Put(const std::string& v) { out_.WriteString(v); }
  void Put(const Bytes& v) { out_.WriteBytes(v); }
  template <size_t N>
  void Put(const std::array<uint8_t, N>& v) {
    out_.WriteRaw(v.data(), N);
  }
  template <typename T>
  void Put(const std::vector<T>& v) {
    out_.WriteVarint(v.size());
    for (const T& e : v) Put(e);
  }
  template <typename A, typename B>
  void Put(const std::pair<A, B>& v) {
    Put(v.first);
    Put(v.second);
  }
  template <typename T>
  void Put(const VarintField<T>& f) {
    out_.WriteVarint(f.v);
  }
  void Put(const VarintField<const std::vector<uint64_t>>& f) {
    out_.WriteVarint(f.v.size());
    for (uint64_t e : f.v) out_.WriteVarint(e);
  }
  template <typename F>
  void Put(const MaxField<F>& f) {
    Put(f.field);
  }
  template <typename E>
  void Put(const EnumField<E>& f) {
    out_.WriteU8(static_cast<uint8_t>(f.v));
  }
  template <typename T>
  void Put(const Const<T>& c) {
    Put(c.value);
  }

  BinaryWriter out_;
};

/// Reads each field in place, stopping at the first error.
class Reader {
 public:
  /// The reader does not own `data`; it must outlive the reader.
  Reader(const uint8_t* data, size_t len) : in_(data, len) {}

  template <typename... F>
  Status operator()(F&&... fields) {
    Status s;
    (... && (s = Get(fields)).ok());
    return s;
  }
  bool Optional(bool /*present*/) const { return !in_.AtEnd(); }
  bool AtEnd() const { return in_.AtEnd(); }

 private:
  template <typename T>
  Status Get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      BP_ASSIGN_OR_RETURN(uint8_t b, in_.ReadU8());
      v = b != 0;
    } else if constexpr (std::is_integral_v<T>) {
      uint64_t x = 0;
      if constexpr (sizeof(T) == 1) {
        BP_ASSIGN_OR_RETURN(x, in_.ReadU8());
      } else if constexpr (sizeof(T) == 2) {
        BP_ASSIGN_OR_RETURN(x, in_.ReadU16());
      } else if constexpr (sizeof(T) == 4) {
        BP_ASSIGN_OR_RETURN(x, in_.ReadU32());
      } else {
        BP_ASSIGN_OR_RETURN(x, in_.ReadU64());
      }
      v = static_cast<T>(x);
    } else if constexpr (std::is_same_v<T, double>) {
      BP_ASSIGN_OR_RETURN(uint64_t bits, in_.ReadU64());
      v = std::bit_cast<double>(bits);
    } else {
      BP_RETURN_IF_ERROR(Fields(v, *this));
      if constexpr (requires { v.Check(); }) return v.Check();
    }
    return Status::OK();
  }
  Status Get(std::string& v) {
    BP_ASSIGN_OR_RETURN(v, in_.ReadString());
    return Status::OK();
  }
  Status Get(Bytes& v) {
    BP_ASSIGN_OR_RETURN(v, in_.ReadBytes());
    return Status::OK();
  }
  template <size_t N>
  Status Get(std::array<uint8_t, N>& v) {
    return in_.ReadRaw(v.data(), N);
  }
  template <typename T>
  Status Get(std::vector<T>& v, uint64_t max = UINT64_MAX) {
    BP_ASSIGN_OR_RETURN(uint64_t n, Count(max));
    v.clear();
    for (uint64_t i = 0; i < n; ++i) BP_RETURN_IF_ERROR(Get(v.emplace_back()));
    return Status::OK();
  }
  template <typename A, typename B>
  Status Get(std::pair<A, B>& v) {
    BP_RETURN_IF_ERROR(Get(v.first));
    return Get(v.second);
  }
  Status Get(VarintField<uint64_t>& f) {
    BP_ASSIGN_OR_RETURN(f.v, in_.ReadVarint());
    return Status::OK();
  }
  Status Get(VarintField<std::vector<uint64_t>>& f,
             uint64_t max = UINT64_MAX) {
    BP_ASSIGN_OR_RETURN(uint64_t n, Count(max));
    f.v.clear();
    for (uint64_t i = 0; i < n; ++i) {
      BP_ASSIGN_OR_RETURN(uint64_t e, in_.ReadVarint());
      f.v.push_back(e);
    }
    return Status::OK();
  }
  template <typename F>
  Status Get(MaxField<F>& f) {
    return Get(f.field, f.max);
  }
  template <typename E>
  Status Get(EnumField<E>& f) {
    BP_ASSIGN_OR_RETURN(uint8_t b, in_.ReadU8());
    if (b < f.lo || b > f.hi) return Status::Corruption("enum out of range");
    f.v = static_cast<E>(b);
    return Status::OK();
  }
  template <typename T>
  Status Get(Const<T>& c) {
    T v{};
    BP_RETURN_IF_ERROR(Get(v));
    if (v != c.value) {
      return Status::Corruption("bad magic, version or reserved bytes");
    }
    return Status::OK();
  }

  /// An element count: every element takes at least one byte, so a count
  /// past the bytes left is corrupt, and so is one past the field's Max.
  Result<uint64_t> Count(uint64_t max) {
    BP_ASSIGN_OR_RETURN(uint64_t n, in_.ReadVarint());
    if (n > in_.remaining()) return Status::Corruption("count exceeds payload");
    if (n > max) return Status::Corruption("count over limit");
    return n;
  }

  BinaryReader in_;
};

/// `m`'s wire bytes.
template <typename M>
Bytes Encode(const M& m) {
  Writer w;
  (void)w(m);
  return w.Take();
}

/// Reads `m`'s fields in place from exactly the `len` bytes at `data`;
/// fields of an optional section the data lacks keep their values.
template <typename M>
Status DecodeInto(const uint8_t* data, size_t len, M& m) {
  Reader r(data, len);
  BP_RETURN_IF_ERROR(r(m));
  if (!r.AtEnd()) return Status::Corruption("trailing bytes");
  return Status::OK();
}
template <typename M>
Status DecodeInto(const Bytes& data, M& m) {
  return DecodeInto(data.data(), data.size(), m);
}

/// The M encoded in exactly `data`.
template <typename M>
Result<M> Decode(const uint8_t* data, size_t len) {
  M m;
  BP_RETURN_IF_ERROR(DecodeInto(data, len, m));
  return m;
}
template <typename M>
Result<M> Decode(const Bytes& data) {
  return Decode<M>(data.data(), data.size());
}

}  // namespace bestpeer::wire

#endif  // BESTPEER_UTIL_WIRE_H_
