#ifndef BESTPEER_STORM_PAGE_H_
#define BESTPEER_STORM_PAGE_H_

#include <cstdint>
#include <utility>

#include "util/bytes.h"
#include "util/result.h"

namespace bestpeer::storm {

/// A 4 KiB slotted page, the unit of storage and buffering in StorM.
///
/// Layout:
///   [0..4)    magic
///   [4..8)    page id
///   [8..10)   slot count
///   [10..12)  free-space offset (start of unused region)
///   [12..16)  reserved
///   [16..24)  checksum (four-lane 8-byte-word hash over the rest of
///             the page; see ComputeChecksum)
///   [24..free_off)            record data, append-only until Compact()
///   [4096-4*nslots..4096)     slot directory, growing downwards;
///                             each slot is {offset:u16, len:u16};
///                             offset 0xFFFF marks a tombstone.
class Page {
 public:
  static constexpr size_t kPageSize = 4096;
  static constexpr size_t kHeaderSize = 24;
  static constexpr size_t kSlotEntrySize = 4;
  static constexpr uint16_t kTombstone = 0xFFFF;
  static constexpr uint32_t kMagic = 0x53744F52;  // "StOR"

  /// Maximum record payload a freshly formatted page can hold.
  static constexpr size_t kMaxRecordSize =
      kPageSize - kHeaderSize - kSlotEntrySize;

  Page() = default;

  /// Formats the page as empty with the given id.
  void Init(uint32_t page_id);

  uint32_t page_id() const { return ReadU32(4); }
  uint16_t slot_count() const { return ReadU16(8); }

  /// True iff the magic field is valid (page has been formatted).
  bool IsFormatted() const { return ReadU32(0) == kMagic; }

  /// Contiguous bytes available for a new record, accounting for the slot
  /// directory entry a fresh insert may need.
  size_t FreeSpace() const;

  /// Bytes reclaimable by Compact() (space held by deleted records).
  size_t FragmentedSpace() const;

  /// Inserts a record; returns its slot number. Reuses tombstone slots.
  /// Fails with ResourceExhausted when the record does not fit (callers
  /// should Compact() and retry, or use another page).
  Result<uint16_t> Insert(const uint8_t* data, uint16_t len);

  /// Returns a (pointer, length) view of a live record.
  Result<std::pair<const uint8_t*, uint16_t>> Read(uint16_t slot) const;

  /// Tombstones a live record.
  Status Delete(uint16_t slot);

  /// True iff `slot` exists and holds a live record.
  bool SlotLive(uint16_t slot) const;

  /// Rewrites the data area to squeeze out deleted records. Slot numbers
  /// are stable across compaction.
  void Compact();

  /// Recomputes and stores the checksum; call before writing to disk.
  void UpdateChecksum();

  /// Verifies the stored checksum; call after reading from disk.
  bool VerifyChecksum() const;

  uint8_t* raw() { return data_; }
  const uint8_t* raw() const { return data_; }

 private:
  uint16_t ReadU16(size_t off) const;
  uint32_t ReadU32(size_t off) const;
  uint64_t ReadU64(size_t off) const;
  void WriteU16(size_t off, uint16_t v);
  void WriteU32(size_t off, uint32_t v);
  void WriteU64(size_t off, uint64_t v);

  uint16_t free_off() const { return ReadU16(10); }
  void set_free_off(uint16_t v) { WriteU16(10, v); }
  void set_slot_count(uint16_t v) { WriteU16(8, v); }

  size_t SlotDirPos(uint16_t slot) const {
    return kPageSize - kSlotEntrySize * (static_cast<size_t>(slot) + 1);
  }
  uint16_t SlotOffset(uint16_t slot) const { return ReadU16(SlotDirPos(slot)); }
  uint16_t SlotLen(uint16_t slot) const {
    return ReadU16(SlotDirPos(slot) + 2);
  }
  void SetSlot(uint16_t slot, uint16_t offset, uint16_t len);

  uint64_t ComputeChecksum() const;

  uint8_t data_[kPageSize] = {};
};

}  // namespace bestpeer::storm

#endif  // BESTPEER_STORM_PAGE_H_
