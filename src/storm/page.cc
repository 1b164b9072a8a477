#include "storm/page.h"

#include <bit>
#include <cstring>
#include <vector>

#include "util/hash.h"

namespace bestpeer::storm {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;

// One XXH64 accumulator round: bijective in `lane` for a fixed word and
// injective in `word` for a fixed lane (odd multipliers, a rotation and
// an add are all invertible mod 2^64).
uint64_t ChecksumRound(uint64_t lane, uint64_t word) {
  return std::rotl(lane + word * kPrime2, 31) * kPrime1;
}

}  // namespace

uint16_t Page::ReadU16(size_t off) const {
  uint16_t v;
  std::memcpy(&v, data_ + off, sizeof(v));
  return v;
}
uint32_t Page::ReadU32(size_t off) const {
  uint32_t v;
  std::memcpy(&v, data_ + off, sizeof(v));
  return v;
}
uint64_t Page::ReadU64(size_t off) const {
  uint64_t v;
  std::memcpy(&v, data_ + off, sizeof(v));
  return v;
}
void Page::WriteU16(size_t off, uint16_t v) {
  std::memcpy(data_ + off, &v, sizeof(v));
}
void Page::WriteU32(size_t off, uint32_t v) {
  std::memcpy(data_ + off, &v, sizeof(v));
}
void Page::WriteU64(size_t off, uint64_t v) {
  std::memcpy(data_ + off, &v, sizeof(v));
}

void Page::Init(uint32_t page_id) {
  std::memset(data_, 0, kPageSize);
  WriteU32(0, kMagic);
  WriteU32(4, page_id);
  set_slot_count(0);
  set_free_off(static_cast<uint16_t>(kHeaderSize));
}

size_t Page::FreeSpace() const {
  size_t dir_start = kPageSize - kSlotEntrySize * slot_count();
  size_t gap = dir_start - free_off();
  // A fresh insert may need a new slot entry unless a tombstone is free.
  bool have_tombstone = false;
  for (uint16_t s = 0; s < slot_count(); ++s) {
    if (SlotOffset(s) == kTombstone) {
      have_tombstone = true;
      break;
    }
  }
  if (!have_tombstone) {
    if (gap < kSlotEntrySize) return 0;
    gap -= kSlotEntrySize;
  }
  return gap;
}

size_t Page::FragmentedSpace() const {
  size_t live = 0;
  for (uint16_t s = 0; s < slot_count(); ++s) {
    if (SlotOffset(s) != kTombstone) live += SlotLen(s);
  }
  size_t used = free_off() - kHeaderSize;
  return used - live;
}

void Page::SetSlot(uint16_t slot, uint16_t offset, uint16_t len) {
  WriteU16(SlotDirPos(slot), offset);
  WriteU16(SlotDirPos(slot) + 2, len);
}

Result<uint16_t> Page::Insert(const uint8_t* data, uint16_t len) {
  // Find a reusable tombstone slot, if any.
  uint16_t slot = slot_count();
  bool reuse = false;
  for (uint16_t s = 0; s < slot_count(); ++s) {
    if (SlotOffset(s) == kTombstone) {
      slot = s;
      reuse = true;
      break;
    }
  }
  size_t dir_start =
      kPageSize - kSlotEntrySize * (slot_count() + (reuse ? 0 : 1));
  if (free_off() + static_cast<size_t>(len) > dir_start) {
    return Status::ResourceExhausted("page full");
  }
  uint16_t off = free_off();
  std::memcpy(data_ + off, data, len);
  set_free_off(static_cast<uint16_t>(off + len));
  if (!reuse) set_slot_count(static_cast<uint16_t>(slot_count() + 1));
  SetSlot(slot, off, len);
  return slot;
}

Result<std::pair<const uint8_t*, uint16_t>> Page::Read(uint16_t slot) const {
  if (slot >= slot_count()) {
    return Status::OutOfRange("slot " + std::to_string(slot) +
                              " out of range");
  }
  if (SlotOffset(slot) == kTombstone) {
    return Status::NotFound("slot " + std::to_string(slot) + " deleted");
  }
  return std::make_pair(data_ + SlotOffset(slot), SlotLen(slot));
}

Status Page::Delete(uint16_t slot) {
  if (slot >= slot_count()) {
    return Status::OutOfRange("slot " + std::to_string(slot) +
                              " out of range");
  }
  if (SlotOffset(slot) == kTombstone) {
    return Status::NotFound("slot " + std::to_string(slot) +
                            " already deleted");
  }
  SetSlot(slot, kTombstone, 0);
  return Status::OK();
}

bool Page::SlotLive(uint16_t slot) const {
  return slot < slot_count() && SlotOffset(slot) != kTombstone;
}

void Page::Compact() {
  std::vector<uint8_t> scratch(kPageSize);
  uint16_t write_off = kHeaderSize;
  for (uint16_t s = 0; s < slot_count(); ++s) {
    if (SlotOffset(s) == kTombstone) continue;
    uint16_t len = SlotLen(s);
    std::memcpy(scratch.data() + write_off, data_ + SlotOffset(s), len);
    SetSlot(s, write_off, len);
    write_off = static_cast<uint16_t>(write_off + len);
  }
  std::memcpy(data_ + kHeaderSize, scratch.data() + kHeaderSize,
              write_off - kHeaderSize);
  set_free_off(write_off);
}

uint64_t Page::ComputeChecksum() const {
  // Word i of the page's 512 8-byte words feeds lane i % 4, so the four
  // lanes' multiplies pipeline instead of chaining one per byte. The
  // checksum field (word 2) hashes as zero, which leaves it out. Any
  // change confined to one word changes the result: its round is
  // injective in the word, every later round of its lane is bijective,
  // and the merge is bijective in each lane.
  uint64_t lane[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
  lane[0] = ChecksumRound(lane[0], ReadU64(0));
  lane[1] = ChecksumRound(lane[1], ReadU64(8));
  lane[2] = ChecksumRound(lane[2], 0);
  lane[3] = ChecksumRound(lane[3], ReadU64(24));
  static_assert(kPageSize % 32 == 0);
  for (size_t off = 32; off < kPageSize; off += 32) {
    for (size_t l = 0; l < 4; ++l) {
      lane[l] = ChecksumRound(lane[l], ReadU64(off + 8 * l));
    }
  }
  return Mix64(std::rotl(lane[0], 1) + std::rotl(lane[1], 7) +
               std::rotl(lane[2], 12) + std::rotl(lane[3], 18));
}

void Page::UpdateChecksum() { WriteU64(16, ComputeChecksum()); }

bool Page::VerifyChecksum() const { return ReadU64(16) == ComputeChecksum(); }

}  // namespace bestpeer::storm
