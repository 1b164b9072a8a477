#ifndef BESTPEER_UTIL_HASH_H_
#define BESTPEER_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

namespace bestpeer {

/// FNV-1a 64-bit hash over arbitrary bytes. Used for StorM WAL record
/// checksums and for hashing keys in the result cache and the content
/// summaries (StorM pages have their own word-wise checksum).
uint64_t Fnv1a64(const void* data, size_t len);

/// FNV-1a over a string.
inline uint64_t Fnv1a64(std::string_view s) {
  return Fnv1a64(s.data(), s.size());
}

/// 64-bit finalizer (MurmurHash3 fmix64); good avalanche for integer keys.
uint64_t Mix64(uint64_t x);

}  // namespace bestpeer

#endif  // BESTPEER_UTIL_HASH_H_
