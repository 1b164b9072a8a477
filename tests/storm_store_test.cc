#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "storm/object_store.h"
#include "storm/storm.h"
#include "util/rng.h"

namespace bestpeer::storm {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_("/tmp/bp_storm_test_" + tag + "_" +
              std::to_string(::getpid()) + ".db") {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Bytes Content(const std::string& s) { return Bytes(s.begin(), s.end()); }

std::unique_ptr<ObjectStore> MakeStore(MemPager* pager, BufferPool** pool_out,
                                       std::unique_ptr<BufferPool>* pool) {
  *pool = BufferPool::Create(pager, {.frames = 16, .policy = "lru"}).value();
  *pool_out = pool->get();
  return ObjectStore::Open(pool->get()).value();
}

TEST(ObjectStoreTest, PutGetDelete) {
  MemPager pager;
  std::unique_ptr<BufferPool> pool;
  BufferPool* raw;
  auto store = MakeStore(&pager, &raw, &pool);

  ASSERT_TRUE(store->Put(1, Content("hello")).ok());
  EXPECT_TRUE(store->Contains(1));
  EXPECT_EQ(store->Get(1).value(), Content("hello"));
  ASSERT_TRUE(store->Delete(1).ok());
  EXPECT_FALSE(store->Contains(1));
  EXPECT_TRUE(store->Get(1).status().IsNotFound());
  EXPECT_TRUE(store->Delete(1).IsNotFound());
}

TEST(ObjectStoreTest, DuplicatePutRejected) {
  MemPager pager;
  std::unique_ptr<BufferPool> pool;
  BufferPool* raw;
  auto store = MakeStore(&pager, &raw, &pool);
  ASSERT_TRUE(store->Put(1, Content("a")).ok());
  EXPECT_TRUE(store->Put(1, Content("b")).IsAlreadyExists());
}

TEST(ObjectStoreTest, EmptyObject) {
  MemPager pager;
  std::unique_ptr<BufferPool> pool;
  BufferPool* raw;
  auto store = MakeStore(&pager, &raw, &pool);
  ASSERT_TRUE(store->Put(5, Bytes{}).ok());
  EXPECT_EQ(store->Get(5).value(), Bytes{});
}

TEST(ObjectStoreTest, LargeObjectSpansChunks) {
  MemPager pager;
  std::unique_ptr<BufferPool> pool;
  BufferPool* raw;
  auto store = MakeStore(&pager, &raw, &pool);
  Rng rng(1);
  Bytes big(ObjectStore::kChunkDataSize * 3 + 17);
  for (auto& b : big) b = static_cast<uint8_t>(rng.NextBounded(256));
  ASSERT_TRUE(store->Put(9, big).ok());
  EXPECT_EQ(store->Get(9).value(), big);
  ASSERT_TRUE(store->Delete(9).ok());
  EXPECT_FALSE(store->Contains(9));
}

TEST(ObjectStoreTest, ForEachViewEqualsGet) {
  MemPager pager;
  std::unique_ptr<BufferPool> pool;
  BufferPool* raw;
  auto store = MakeStore(&pager, &raw, &pool);
  Rng rng(3);
  Bytes three_chunks(8000);
  for (auto& b : three_chunks) b = static_cast<uint8_t>(rng.NextBounded(256));
  ASSERT_TRUE(store->Put(1, Content("one chunk")).ok());
  ASSERT_TRUE(store->Put(2, three_chunks).ok());
  ASSERT_TRUE(store->Put(3, Bytes{}).ok());
  std::vector<std::pair<ObjectId, Bytes>> seen;
  ASSERT_TRUE(store
                  ->ForEach([&seen](ObjectId id, std::string_view data) {
                    seen.emplace_back(id, Bytes(data.begin(), data.end()));
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 3u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, i + 1);  // Ascending id order.
    EXPECT_EQ(seen[i].second, store->Get(seen[i].first).value())
        << "object " << seen[i].first;
  }
}

TEST(ObjectStoreTest, ListIdsSorted) {
  MemPager pager;
  std::unique_ptr<BufferPool> pool;
  BufferPool* raw;
  auto store = MakeStore(&pager, &raw, &pool);
  for (ObjectId id : {5, 1, 9, 3}) {
    ASSERT_TRUE(store->Put(id, Content("x")).ok());
  }
  EXPECT_EQ(store->ListIds(), (std::vector<ObjectId>{1, 3, 5, 9}));
  EXPECT_EQ(store->object_count(), 4u);
}

TEST(ObjectStoreTest, SpaceReusedAfterDelete) {
  MemPager pager;
  std::unique_ptr<BufferPool> pool;
  BufferPool* raw;
  auto store = MakeStore(&pager, &raw, &pool);
  Bytes obj(1024, 0xAB);
  for (ObjectId id = 0; id < 50; ++id) {
    ASSERT_TRUE(store->Put(id, obj).ok());
  }
  PageId pages_before = pager.page_count();
  for (ObjectId id = 0; id < 50; ++id) {
    ASSERT_TRUE(store->Delete(id).ok());
  }
  for (ObjectId id = 100; id < 150; ++id) {
    ASSERT_TRUE(store->Put(id, obj).ok());
  }
  // Deleted space must be reused: no significant page growth.
  EXPECT_LE(pager.page_count(), pages_before + 1);
}

// Ids of the live records on page `pid`, in slot order.
std::vector<ObjectId> IdsOnPage(BufferPool* pool, PageId pid) {
  std::vector<ObjectId> ids;
  PageGuard guard = pool->Fetch(pid).value();
  for (uint16_t slot = 0; slot < guard.page()->slot_count(); ++slot) {
    if (!guard.page()->SlotLive(slot)) continue;
    ObjectId id;
    std::memcpy(&id, guard.page()->Read(slot).value().first, sizeof(id));
    ids.push_back(id);
  }
  return ids;
}

TEST(ObjectStoreTest, FirstFitMatchesParent) {
  // The paper's 1000 x 1 KB store over a 128-frame pool: three records a
  // page, so page 333 holds only id 999. Then holes on pages 0 and 167.
  // First fit in page order fills the holes, then the tail page, then a
  // new page; the pool counts pin the fetch sequence that choice makes,
  // which every storm.pool_* figure depends on.
  MemPager pager;
  auto pool = BufferPool::Create(&pager, {.frames = 128, .policy = "lru"}).value();
  auto store = ObjectStore::Open(pool.get()).value();
  const Bytes obj(1024, 'x');
  for (ObjectId id = 0; id < 1000; ++id) {
    ASSERT_TRUE(store->Put(id, obj).ok());
  }
  EXPECT_EQ(pager.page_count(), 334u);
  EXPECT_EQ(pool->hits(), 666u);
  EXPECT_EQ(pool->misses(), 0u);
  EXPECT_EQ(pool->evictions(), 206u);
  EXPECT_EQ(pool->writebacks(), 206u);

  const uint64_t hits = pool->hits();
  const uint64_t misses = pool->misses();
  const uint64_t evictions = pool->evictions();
  const uint64_t writebacks = pool->writebacks();
  for (ObjectId id : {0, 1, 2, 501, 502, 503}) {
    ASSERT_TRUE(store->Delete(id).ok());
  }
  for (ObjectId id = 1000; id < 1008; ++id) {
    ASSERT_TRUE(store->Put(id, obj).ok());
  }
  EXPECT_EQ(pager.page_count(), 334u);  // Holes and tail refilled in place.
  ASSERT_TRUE(store->Put(1008, obj).ok());
  EXPECT_EQ(pager.page_count(), 335u);
  EXPECT_EQ(pool->hits() - hits, 12u);
  EXPECT_EQ(pool->misses() - misses, 2u);  // Pages 0 and 167.
  EXPECT_EQ(pool->evictions() - evictions, 3u);
  EXPECT_EQ(pool->writebacks() - writebacks, 3u);

  EXPECT_EQ(IdsOnPage(pool.get(), 0),
            (std::vector<ObjectId>{1000, 1001, 1002}));
  EXPECT_EQ(IdsOnPage(pool.get(), 167),
            (std::vector<ObjectId>{1003, 1004, 1005}));
  EXPECT_EQ(IdsOnPage(pool.get(), 333),
            (std::vector<ObjectId>{999, 1006, 1007}));
  EXPECT_EQ(IdsOnPage(pool.get(), 334), (std::vector<ObjectId>{1008}));
}

TEST(ObjectStoreTest, DirectoryRebuiltOnReopen) {
  MemPager pager;
  {
    auto pool = BufferPool::Create(&pager, {.frames = 16, .policy = "lru"}).value();
    auto store = ObjectStore::Open(pool.get()).value();
    ASSERT_TRUE(store->Put(1, Content("persisted")).ok());
    Bytes big(ObjectStore::kChunkDataSize * 2, 0x5A);
    ASSERT_TRUE(store->Put(2, big).ok());
    ASSERT_TRUE(pool->FlushAll().ok());
  }
  {
    auto pool = BufferPool::Create(&pager, {.frames = 16, .policy = "lru"}).value();
    auto store = ObjectStore::Open(pool.get()).value();
    EXPECT_EQ(store->object_count(), 2u);
    EXPECT_EQ(store->Get(1).value(), Content("persisted"));
    EXPECT_EQ(store->Get(2).value().size(), ObjectStore::kChunkDataSize * 2);
  }
}

// ---------------------------------------------------------------- Storm

TEST(StormTest, InMemoryBasics) {
  StormOptions options;
  auto storm = Storm::Open(options).value();
  ASSERT_TRUE(storm->Put(1, Content("alpha needle beta")).ok());
  ASSERT_TRUE(storm->Put(2, Content("gamma delta")).ok());
  EXPECT_EQ(storm->object_count(), 2u);

  auto scan = storm->ScanSearch("needle").value();
  EXPECT_EQ(scan.objects_scanned, 2u);
  EXPECT_EQ(scan.matches, (std::vector<ObjectId>{1}));

  EXPECT_EQ(storm->IndexSearch("needle").value(),
            (std::vector<ObjectId>{1}));
  EXPECT_EQ(storm->IndexSearch("delta").value(),
            (std::vector<ObjectId>{2}));
  EXPECT_TRUE(storm->IndexSearch("nothing").value().empty());
}

TEST(StormTest, IndexTracksDeletes) {
  StormOptions options;
  auto storm = Storm::Open(options).value();
  ASSERT_TRUE(storm->Put(1, Content("needle here")).ok());
  ASSERT_TRUE(storm->Delete(1).ok());
  EXPECT_TRUE(storm->IndexSearch("needle").value().empty());
  EXPECT_TRUE(storm->ScanSearch("needle").value().matches.empty());
}

TEST(StormTest, IndexDisabled) {
  StormOptions options;
  options.build_index = false;
  auto storm = Storm::Open(options).value();
  ASSERT_TRUE(storm->Put(1, Content("needle")).ok());
  EXPECT_TRUE(storm->IndexSearch("needle").status().IsFailedPrecondition());
  EXPECT_EQ(storm->ScanSearch("needle").value().matches.size(), 1u);
}

TEST(StormTest, PersistsAcrossReopen) {
  TempFile file("storm_reopen");
  {
    StormOptions options;
    options.path = file.path();
    auto storm = Storm::Open(options).value();
    ASSERT_TRUE(storm->Put(7, Content("needle persists")).ok());
    ASSERT_TRUE(storm->Put(8, Content("other data")).ok());
    ASSERT_TRUE(storm->Flush().ok());
  }
  {
    StormOptions options;
    options.path = file.path();
    auto storm = Storm::Open(options).value();
    EXPECT_EQ(storm->object_count(), 2u);
    EXPECT_EQ(storm->Get(7).value(), Content("needle persists"));
    // Index is rebuilt from the persisted objects.
    EXPECT_EQ(storm->IndexSearch("needle").value(),
              (std::vector<ObjectId>{7}));
  }
}

TEST(StormTest, FilePagerDetectsCorruption) {
  TempFile file("storm_corrupt");
  {
    StormOptions options;
    options.path = file.path();
    auto storm = Storm::Open(options).value();
    ASSERT_TRUE(storm->Put(1, Bytes(2000, 0x11)).ok());
    ASSERT_TRUE(storm->Flush().ok());
  }
  // Flip a byte in the middle of the first page.
  {
    std::FILE* f = std::fopen(file.path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 200, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, 200, SEEK_SET);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  StormOptions options;
  options.path = file.path();
  auto storm = Storm::Open(options);
  EXPECT_FALSE(storm.ok());
  EXPECT_TRUE(storm.status().IsCorruption());
}

TEST(StormTest, ScanVerifiesPagesReadBackFromFile) {
  TempFile file("storm_scan_corrupt");
  StormOptions options;
  options.path = file.path();
  options.buffer_frames = 2;
  options.build_index = false;
  auto storm = Storm::Open(options).value();
  // Twelve 1 KB objects fill four pages, three a page; the 2-frame pool
  // writes the first pages to the file as it evicts them.
  for (ObjectId id = 0; id < 12; ++id) {
    ASSERT_TRUE(storm->Put(id, Bytes(1024, ' ')).ok());
  }
  ASSERT_EQ(storm->buffer_pool().pager()->page_count(), 4u);
  ASSERT_TRUE(storm->Flush().ok());
  ASSERT_TRUE(storm->ScanSearch("needle").ok());
  // Page 0 is evicted again by the end of the scan; corrupt its copy in
  // the file so the next scan must read and verify it.
  {
    std::FILE* f = std::fopen(file.path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 100, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, 100, SEEK_SET);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  auto scan = storm->ScanSearch("needle");
  EXPECT_TRUE(scan.status().IsCorruption()) << scan.status().ToString();
}

TEST(StormTest, ScanFindsKeywordAcrossChunkBoundary) {
  auto storm = Storm::Open({}).value();
  std::string text(8000, ' ');
  // "needle" covers bytes 3497..3502, across the first chunk boundary.
  text.replace(ObjectStore::kChunkDataSize - 3, 6, "needle");
  ASSERT_TRUE(storm->Put(4, Content(text)).ok());
  ASSERT_TRUE(storm->Put(5, Content("no match here")).ok());
  auto scan = storm->ScanSearch("needle");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->matches, (std::vector<ObjectId>{4}));
}

TEST(StormTest, UpdateReplacesContentAndIndex) {
  auto storm = Storm::Open({}).value();
  ASSERT_TRUE(storm->Put(1, Content("needle old")).ok());
  ASSERT_TRUE(storm->Update(1, Content("fresh text")).ok());
  EXPECT_EQ(storm->Get(1).value(), Content("fresh text"));
  EXPECT_TRUE(storm->IndexSearch("needle").value().empty());
  EXPECT_EQ(storm->IndexSearch("fresh").value(),
            (std::vector<ObjectId>{1}));
  EXPECT_TRUE(storm->Update(99, Content("x")).IsNotFound());
  EXPECT_EQ(storm->object_count(), 1u);
}

TEST(StormTest, UpdateIsOneAtomicMutation) {
  auto storm = Storm::Open({}).value();
  ASSERT_TRUE(storm->Put(1, Content("needle old")).ok());

  size_t listener_fires = 0;
  uint64_t last_epoch = 0;
  storm->SetMutationListener([&](uint64_t epoch) {
    ++listener_fires;
    last_epoch = epoch;
  });

  const uint64_t before = storm->mutation_epoch();
  ASSERT_TRUE(storm->Update(1, Content("fresh text")).ok());
  EXPECT_EQ(storm->mutation_epoch(), before + 1)
      << "Update must bump the epoch exactly once, not delete+put twice";
  EXPECT_EQ(listener_fires, 1u);
  EXPECT_EQ(last_epoch, before + 1);

  // A miss mutates nothing and stays silent.
  EXPECT_TRUE(storm->Update(99, Content("x")).IsNotFound());
  EXPECT_EQ(storm->mutation_epoch(), before + 1);
  EXPECT_EQ(listener_fires, 1u);
}

TEST(StormTest, UpdateFailurePathKeepsOldObject) {
  auto storm = Storm::Open({}).value();
  ASSERT_TRUE(storm->Put(1, Content("needle old")).ok());
  size_t listener_fires = 0;
  storm->SetMutationListener([&](uint64_t) { ++listener_fires; });
  const uint64_t before = storm->mutation_epoch();

  // Oversized payload: more chunks than a record header can count. The
  // update must fail cleanly with the old object fully retained and no
  // epoch bump / listener fire (the old code lost the object here).
  Bytes huge(ObjectStore::kChunkDataSize * 0x10000, 0);
  Status update = storm->Update(1, huge);
  EXPECT_TRUE(update.IsInvalidArgument()) << update.ToString();
  EXPECT_TRUE(storm->Contains(1));
  EXPECT_EQ(storm->Get(1).value(), Content("needle old"));
  EXPECT_EQ(storm->IndexSearch("needle").value(),
            (std::vector<ObjectId>{1}));
  EXPECT_EQ(storm->mutation_epoch(), before);
  EXPECT_EQ(listener_fires, 0u);
}

TEST(StormTest, QueryCacheDropsStaleEntriesEagerly) {
  StormOptions options;
  options.enable_query_cache = true;
  options.query_cache_entries = 4;
  auto storm = Storm::Open(options).value();
  ASSERT_TRUE(storm->Put(1, Content("needle one")).ok());

  // Fill the cache to capacity with distinct queries.
  for (const char* q : {"needle", "one", "ghost", "gone"}) {
    ASSERT_TRUE(storm->ScanSearch(q).ok());
  }
  EXPECT_EQ(storm->query_cache_size(), 4u);

  // Any mutation makes every entry unreachable; they must be purged, not
  // left to consume query_cache_entries capacity.
  ASSERT_TRUE(storm->Put(2, Content("needle two")).ok());
  EXPECT_EQ(storm->query_cache_size(), 0u);

  // The freed capacity must serve fresh entries: four new queries all
  // fit and all hit on repeat (with stale entries occupying slots, the
  // O(n) LRU scan would have evicted fresh ones instead).
  for (const char* q : {"needle", "one", "two", "fresh"}) {
    ASSERT_TRUE(storm->ScanSearch(q).ok());
  }
  EXPECT_EQ(storm->query_cache_size(), 4u);
  const uint64_t hits_before = storm->query_cache_hits();
  for (const char* q : {"needle", "one", "two", "fresh"}) {
    auto repeat = storm->ScanSearch(q);
    ASSERT_TRUE(repeat.ok());
    EXPECT_TRUE(repeat->from_cache) << q;
  }
  EXPECT_EQ(storm->query_cache_hits(), hits_before + 4);
}

TEST(StormTest, ThousandObjectWorkload) {
  // The paper's per-node setup: 1000 objects of 1 KB.
  StormOptions options;
  options.buffer_frames = 32;
  auto storm = Storm::Open(options).value();
  Bytes obj(1024, 0);
  for (ObjectId id = 0; id < 1000; ++id) {
    std::string text = (id % 100 == 0) ? "needle payload" : "plain payload";
    Bytes content(text.begin(), text.end());
    content.resize(1024, ' ');
    ASSERT_TRUE(storm->Put(id, content).ok());
  }
  auto scan = storm->ScanSearch("needle").value();
  EXPECT_EQ(scan.objects_scanned, 1000u);
  EXPECT_EQ(scan.matches.size(), 10u);
  EXPECT_GT(storm->buffer_pool().evictions(), 0u)
      << "workload must exceed the buffer pool";
}

TEST(StormTest, ScanFetchesOnePagePerChunkRecord) {
  // The paper's 1000 x 1 KB store over a 128-frame pool it overflows.
  StormOptions options;
  options.buffer_frames = 128;
  options.build_index = false;
  auto storm = Storm::Open(options).value();
  for (ObjectId id = 0; id < 1000; ++id) {
    ASSERT_TRUE(storm->Put(id, Bytes(1024, 'x')).ok());
  }
  BufferPool& pool = storm->buffer_pool();
  const PageId pages = pool.pager()->page_count();
  EXPECT_EQ(pages, 334u);  // Three 1 KB chunk records a page.
  const uint64_t accesses = pool.hits() + pool.misses();
  const uint64_t misses = pool.misses();
  ASSERT_TRUE(storm->ScanSearch("needle").ok());
  // One fetch per chunk record, in id order: each page misses once.
  EXPECT_EQ(pool.hits() + pool.misses() - accesses, 1000u);
  EXPECT_EQ(pool.misses() - misses, pages);
}

TEST(StormTest, ScansStayConsistentWhileAnotherThreadMutates) {
  // Ids [0, 64) always exist and always match; ids [1000, 1064) come and
  // go with content that never matches. A scan on one thread, while the
  // other puts, gets, updates and deletes, must see exactly the stable set
  // (the store serializes its calls, so each scan sees it whole).
  constexpr ObjectId kStable = 64;
  constexpr ObjectId kChurnBase = 1000;
  StormOptions options;
  options.buffer_frames = 8;  // Scans evict, so the pool is written too.
  auto storm = Storm::Open(options).value();
  auto padded = [](const std::string& text) {
    Bytes b = Content(text);
    b.resize(700, ' ');
    return b;
  };
  for (ObjectId id = 0; id < kStable; ++id) {
    ASSERT_TRUE(storm->Put(id, padded("a needle in " + std::to_string(id))).ok());
  }
  std::atomic<bool> done{false};
  std::atomic<int> mutator_errors{0};
  std::thread mutator([&]() {
    Rng rng(7);
    for (int round = 0; round < 400; ++round) {
      const ObjectId churn = kChurnBase + rng.NextBounded(kStable);
      const ObjectId stable = rng.NextBounded(kStable);
      if (!storm->Contains(churn)) {
        if (!storm->Put(churn, padded("hay " + std::to_string(round))).ok()) {
          ++mutator_errors;
        }
      } else if (round % 3 == 0) {
        if (!storm->Delete(churn).ok()) ++mutator_errors;
      } else if (!storm->Update(churn, padded("straw " + std::to_string(round)))
                      .ok()) {
        ++mutator_errors;
      }
      // Matching content stays matching through an update.
      if (!storm->Update(stable, padded("needle again " + std::to_string(round)))
               .ok() ||
          !storm->Get(stable).ok()) {
        ++mutator_errors;
      }
    }
    done.store(true);
  });
  std::vector<ObjectId> expected(kStable);
  for (ObjectId id = 0; id < kStable; ++id) expected[id] = id;
  int scans = 0;
  int inconsistent = 0;
  while (!done.load() || scans == 0) {
    auto result = storm->ScanSearch("needle");
    ASSERT_TRUE(result.ok());
    std::vector<ObjectId> matches = result.value().matches;
    std::sort(matches.begin(), matches.end());
    if (matches != expected || result.value().objects_scanned < kStable ||
        result.value().objects_scanned > 2 * kStable) {
      ++inconsistent;
    }
    ++scans;
  }
  mutator.join();
  EXPECT_EQ(inconsistent, 0) << "of " << scans << " scans";
  EXPECT_EQ(mutator_errors.load(), 0);
  EXPECT_EQ(storm->ScanSearch("needle").value().matches.size(), kStable);
}

}  // namespace
}  // namespace bestpeer::storm
