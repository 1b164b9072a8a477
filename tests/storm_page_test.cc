#include <gtest/gtest.h>

#include <cstring>

#include "storm/page.h"
#include "util/rng.h"

namespace bestpeer::storm {
namespace {

Bytes Rec(const std::string& s) { return Bytes(s.begin(), s.end()); }

std::string Str(const std::pair<const uint8_t*, uint16_t>& view) {
  return std::string(reinterpret_cast<const char*>(view.first), view.second);
}

TEST(PageTest, InitFormatsEmptyPage) {
  Page page;
  EXPECT_FALSE(page.IsFormatted());
  page.Init(7);
  EXPECT_TRUE(page.IsFormatted());
  EXPECT_EQ(page.page_id(), 7u);
  EXPECT_EQ(page.slot_count(), 0u);
  EXPECT_EQ(page.FreeSpace(),
            Page::kPageSize - Page::kHeaderSize - Page::kSlotEntrySize);
}

TEST(PageTest, InsertAndRead) {
  Page page;
  page.Init(1);
  Bytes rec = Rec("hello");
  auto slot = page.Insert(rec.data(), rec.size());
  ASSERT_TRUE(slot.ok());
  auto view = page.Read(slot.value());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(Str(view.value()), "hello");
}

TEST(PageTest, MultipleRecordsKeepDistinctSlots) {
  Page page;
  page.Init(1);
  uint16_t s1 = page.Insert(Rec("one").data(), 3).value();
  uint16_t s2 = page.Insert(Rec("two").data(), 3).value();
  uint16_t s3 = page.Insert(Rec("three").data(), 5).value();
  EXPECT_NE(s1, s2);
  EXPECT_NE(s2, s3);
  EXPECT_EQ(Str(page.Read(s1).value()), "one");
  EXPECT_EQ(Str(page.Read(s2).value()), "two");
  EXPECT_EQ(Str(page.Read(s3).value()), "three");
  EXPECT_EQ(page.slot_count(), 3u);
}

TEST(PageTest, DeleteTombstonesSlot) {
  Page page;
  page.Init(1);
  uint16_t s = page.Insert(Rec("x").data(), 1).value();
  EXPECT_TRUE(page.SlotLive(s));
  ASSERT_TRUE(page.Delete(s).ok());
  EXPECT_FALSE(page.SlotLive(s));
  EXPECT_TRUE(page.Read(s).status().IsNotFound());
  EXPECT_TRUE(page.Delete(s).IsNotFound());
}

TEST(PageTest, DeleteOutOfRangeFails) {
  Page page;
  page.Init(1);
  EXPECT_TRUE(page.Delete(0).IsOutOfRange());
  EXPECT_TRUE(page.Read(3).status().IsOutOfRange());
}

TEST(PageTest, TombstoneSlotIsReused) {
  Page page;
  page.Init(1);
  uint16_t s1 = page.Insert(Rec("aaa").data(), 3).value();
  page.Insert(Rec("bbb").data(), 3).value();
  ASSERT_TRUE(page.Delete(s1).ok());
  uint16_t s3 = page.Insert(Rec("ccc").data(), 3).value();
  EXPECT_EQ(s3, s1);  // Reuses the tombstone slot.
  EXPECT_EQ(page.slot_count(), 2u);
}

TEST(PageTest, FullPageRejectsInsert) {
  Page page;
  page.Init(1);
  Bytes big(Page::kMaxRecordSize, 0xAA);
  ASSERT_TRUE(page.Insert(big.data(), big.size()).ok());
  Bytes tiny(1, 0xBB);
  auto r = page.Insert(tiny.data(), 1);
  EXPECT_TRUE(r.status().IsResourceExhausted());
}

TEST(PageTest, CompactReclaimsDeletedSpace) {
  Page page;
  page.Init(1);
  Bytes chunk(1000, 0xCC);
  uint16_t s1 = page.Insert(chunk.data(), chunk.size()).value();
  uint16_t s2 = page.Insert(chunk.data(), chunk.size()).value();
  uint16_t s3 = page.Insert(chunk.data(), chunk.size()).value();
  ASSERT_TRUE(page.Delete(s2).ok());
  EXPECT_EQ(page.FragmentedSpace(), 1000u);
  size_t before = page.FreeSpace();
  page.Compact();
  EXPECT_EQ(page.FragmentedSpace(), 0u);
  EXPECT_GE(page.FreeSpace(), before + 1000);
  // Surviving records still readable at the same slots.
  EXPECT_EQ(page.Read(s1).value().second, 1000);
  EXPECT_EQ(page.Read(s3).value().second, 1000);
  EXPECT_FALSE(page.SlotLive(s2));
}

TEST(PageTest, ChecksumDetectsCorruption) {
  Page page;
  page.Init(1);
  Bytes rec = Rec("checksummed");
  page.Insert(rec.data(), rec.size()).value();
  bestpeer::Rng rng(17);
  for (int i = 0; i < 2; ++i) {
    Bytes filler(1500);
    for (auto& b : filler) b = static_cast<uint8_t>(rng.NextBounded(256));
    page.Insert(filler.data(), filler.size()).value();
  }
  page.UpdateChecksum();
  EXPECT_TRUE(page.VerifyChecksum());
  // Any single-byte change outside the checksum field [16, 24) fails
  // verification: header, records, free space and slot directory.
  for (size_t off = 0; off < Page::kPageSize; ++off) {
    if (off >= 16 && off < 24) continue;
    for (uint8_t mask : {0x01, 0x80, 0xFF}) {
      page.raw()[off] ^= mask;
      EXPECT_FALSE(page.VerifyChecksum())
          << "offset " << off << " mask " << static_cast<int>(mask);
      page.raw()[off] ^= mask;
    }
  }
  EXPECT_TRUE(page.VerifyChecksum());
}

TEST(PageTest, FreeSpaceAccountsForSlotEntry) {
  Page page;
  page.Init(1);
  size_t before = page.FreeSpace();
  Bytes rec(100, 0x01);
  page.Insert(rec.data(), rec.size()).value();
  size_t after = page.FreeSpace();
  // 100 bytes of data + (already counted) slot entry for the next insert.
  EXPECT_EQ(before - after, 100u + Page::kSlotEntrySize);
}

// Property: fill a page with random records, delete a random subset,
// compact, verify all survivors byte-for-byte.
class PagePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PagePropertyTest, RandomFillDeleteCompact) {
  bestpeer::Rng rng(GetParam());
  Page page;
  page.Init(1);
  struct Live {
    uint16_t slot;
    Bytes data;
  };
  std::vector<Live> live;
  // Fill until full.
  for (;;) {
    size_t len = rng.NextBounded(300) + 1;
    Bytes rec(len);
    for (auto& b : rec) b = static_cast<uint8_t>(rng.NextBounded(256));
    auto slot = page.Insert(rec.data(), rec.size());
    if (!slot.ok()) break;
    live.push_back({slot.value(), rec});
  }
  ASSERT_GT(live.size(), 5u);
  // Delete ~half.
  std::vector<Live> survivors;
  for (auto& item : live) {
    if (rng.NextBool()) {
      ASSERT_TRUE(page.Delete(item.slot).ok());
    } else {
      survivors.push_back(item);
    }
  }
  page.Compact();
  for (const auto& item : survivors) {
    auto view = page.Read(item.slot);
    ASSERT_TRUE(view.ok());
    ASSERT_EQ(view->second, item.data.size());
    EXPECT_EQ(0, std::memcmp(view->first, item.data.data(), view->second));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PagePropertyTest,
                         ::testing::Values(1, 7, 42, 1234, 99999));

}  // namespace
}  // namespace bestpeer::storm
