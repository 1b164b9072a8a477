#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "storm/storm.h"
#include "storm/wal.h"
#include "util/hash.h"

namespace bestpeer::storm {
namespace {

class TempPath {
 public:
  explicit TempPath(const std::string& tag)
      : path_("/tmp/bp_wal_test_" + tag + "_" + std::to_string(::getpid())) {
    std::remove(path_.c_str());
  }
  ~TempPath() { std::remove(path_.c_str()); }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

Bytes Content(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ---------------------------------------------------------------- raw WAL

TEST(WalTest, AppendAndReplay) {
  TempPath wal_path("basic");
  auto wal = WriteAheadLog::Open(wal_path.str()).value();
  ASSERT_TRUE(wal->AppendPut(1, Content("one")).ok());
  ASSERT_TRUE(wal->AppendPut(2, Content("two")).ok());
  ASSERT_TRUE(wal->AppendDelete(1).ok());
  EXPECT_EQ(wal->records_appended(), 3u);

  std::vector<WriteAheadLog::Record> seen;
  auto visited = wal->Replay([&](const WriteAheadLog::Record& r) {
    seen.push_back(r);
    return Status::OK();
  });
  ASSERT_TRUE(visited.ok());
  EXPECT_EQ(visited.value(), 3u);
  EXPECT_EQ(seen[0].type, WriteAheadLog::RecordType::kPut);
  EXPECT_EQ(seen[0].object_id, 1u);
  EXPECT_EQ(seen[0].content, Content("one"));
  EXPECT_EQ(seen[2].type, WriteAheadLog::RecordType::kDelete);
  EXPECT_EQ(seen[2].object_id, 1u);
}

TEST(WalTest, ReplaySurvivesReopen) {
  TempPath wal_path("reopen");
  {
    auto wal = WriteAheadLog::Open(wal_path.str()).value();
    ASSERT_TRUE(wal->AppendPut(7, Content("persisted")).ok());
  }
  auto wal = WriteAheadLog::Open(wal_path.str()).value();
  size_t count = 0;
  ASSERT_TRUE(wal->Replay([&](const WriteAheadLog::Record&) {
                   ++count;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(count, 1u);
}

TEST(WalTest, TornTailIsIgnored) {
  TempPath wal_path("torn");
  {
    auto wal = WriteAheadLog::Open(wal_path.str()).value();
    ASSERT_TRUE(wal->AppendPut(1, Content("intact")).ok());
    ASSERT_TRUE(wal->AppendPut(2, Content("will be torn")).ok());
  }
  // Chop a few bytes off the end, simulating a crash mid-write.
  {
    std::FILE* f = std::fopen(wal_path.str().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    ASSERT_TRUE(::truncate(wal_path.str().c_str(), size - 5) == 0);
    std::fclose(f);
  }
  auto wal = WriteAheadLog::Open(wal_path.str()).value();
  std::vector<ObjectId> ids;
  ASSERT_TRUE(wal->Replay([&](const WriteAheadLog::Record& r) {
                   ids.push_back(r.object_id);
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(ids, (std::vector<ObjectId>{1}))
      << "only the intact prefix replays";
}

TEST(WalTest, CorruptMiddleStopsReplay) {
  TempPath wal_path("corrupt");
  {
    auto wal = WriteAheadLog::Open(wal_path.str()).value();
    ASSERT_TRUE(wal->AppendPut(1, Content("aaaa")).ok());
    ASSERT_TRUE(wal->AppendPut(2, Content("bbbb")).ok());
  }
  {
    std::FILE* f = std::fopen(wal_path.str().c_str(), "r+b");
    std::fseek(f, 6, SEEK_SET);  // Inside the first record body.
    std::fputc(0xFF, f);
    std::fclose(f);
  }
  auto wal = WriteAheadLog::Open(wal_path.str()).value();
  size_t count = 0;
  ASSERT_TRUE(wal->Replay([&](const WriteAheadLog::Record&) {
                   ++count;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(count, 0u) << "checksum mismatch stops replay";
}

TEST(WalTest, UndecodableBodyBehindValidChecksumFailsReplay) {
  TempPath wal_path("undecodable");
  {
    auto wal = WriteAheadLog::Open(wal_path.str()).value();
    ASSERT_TRUE(wal->AppendPut(1, Content("intact")).ok());
  }
  {
    // A Put body whose content length (10) overruns the 3 bytes that
    // follow, framed with its true length and checksum: not torn, so
    // replay must not skip it (or the records behind it) silently.
    const Bytes body = {1, 2, 0, 0, 0, 0, 0, 0, 0, 10, 'a', 'b', 'c'};
    const uint32_t len = static_cast<uint32_t>(body.size());
    const uint64_t checksum = Fnv1a64(body.data(), body.size());
    std::FILE* f = std::fopen(wal_path.str().c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite(&len, sizeof(len), 1, f);
    std::fwrite(body.data(), 1, body.size(), f);
    std::fwrite(&checksum, sizeof(checksum), 1, f);
    std::fclose(f);
  }
  auto wal = WriteAheadLog::Open(wal_path.str()).value();
  std::vector<ObjectId> ids;
  auto visited = wal->Replay([&](const WriteAheadLog::Record& r) {
    ids.push_back(r.object_id);
    return Status::OK();
  });
  EXPECT_FALSE(visited.ok());
  EXPECT_EQ(ids, (std::vector<ObjectId>{1}));
  wal.reset();

  StormOptions options;
  options.wal_path = wal_path.str();
  EXPECT_FALSE(Storm::Open(options).ok());
}

TEST(WalTest, CheckpointTruncates) {
  TempPath wal_path("checkpoint");
  auto wal = WriteAheadLog::Open(wal_path.str()).value();
  ASSERT_TRUE(wal->AppendPut(1, Content("x")).ok());
  EXPECT_GT(wal->SizeBytes().value(), 0u);
  ASSERT_TRUE(wal->Checkpoint().ok());
  EXPECT_EQ(wal->SizeBytes().value(), 0u);
}

// ------------------------------------------------------------- Storm + WAL

TEST(StormWalTest, CrashRecoveryOverMemoryPager) {
  TempPath wal_path("storm_mem");
  StormOptions options;
  options.wal_path = wal_path.str();
  {
    // "Crash": the in-memory pager loses everything at destruction; no
    // Flush is ever called.
    auto storm = Storm::Open(options).value();
    ASSERT_TRUE(storm->Put(1, Content("needle survives")).ok());
    ASSERT_TRUE(storm->Put(2, Content("also survives")).ok());
    ASSERT_TRUE(storm->Put(3, Content("deleted later")).ok());
    ASSERT_TRUE(storm->Delete(3).ok());
  }
  auto storm = Storm::Open(options).value();
  EXPECT_EQ(storm->object_count(), 2u);
  EXPECT_EQ(storm->Get(1).value(), Content("needle survives"));
  EXPECT_FALSE(storm->Contains(3));
  // The rebuilt index works too.
  EXPECT_EQ(storm->IndexSearch("needle").value(),
            (std::vector<ObjectId>{1}));
}

TEST(StormWalTest, CheckpointThenMoreWrites) {
  TempPath wal_path("storm_ckpt");
  TempPath db_path("storm_ckpt_db");
  StormOptions options;
  options.path = db_path.str();
  options.wal_path = wal_path.str();
  {
    auto storm = Storm::Open(options).value();
    ASSERT_TRUE(storm->Put(1, Content("before checkpoint")).ok());
    ASSERT_TRUE(storm->Checkpoint().ok());
    EXPECT_EQ(storm->wal()->SizeBytes().value(), 0u);
    ASSERT_TRUE(storm->Put(2, Content("after checkpoint")).ok());
    // Crash: no flush after the second put.
  }
  auto storm = Storm::Open(options).value();
  EXPECT_EQ(storm->object_count(), 2u);
  EXPECT_EQ(storm->Get(1).value(), Content("before checkpoint"));
  EXPECT_EQ(storm->Get(2).value(), Content("after checkpoint"));
}

TEST(StormWalTest, ReplayIsIdempotentWithFlushedBase) {
  TempPath wal_path("storm_idem");
  TempPath db_path("storm_idem_db");
  StormOptions options;
  options.path = db_path.str();
  options.wal_path = wal_path.str();
  {
    auto storm = Storm::Open(options).value();
    ASSERT_TRUE(storm->Put(1, Content("flushed AND logged")).ok());
    ASSERT_TRUE(storm->Flush().ok());  // Base now contains object 1 too.
  }
  // Reopen: the WAL still holds the Put; replay must not double-apply.
  auto storm = Storm::Open(options).value();
  EXPECT_EQ(storm->object_count(), 1u);
  EXPECT_EQ(storm->Get(1).value(), Content("flushed AND logged"));
}

TEST(StormWalTest, WalDisabledByDefault) {
  auto storm = Storm::Open({}).value();
  EXPECT_EQ(storm->wal(), nullptr);
}

}  // namespace
}  // namespace bestpeer::storm
