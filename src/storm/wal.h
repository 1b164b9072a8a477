#ifndef BESTPEER_STORM_WAL_H_
#define BESTPEER_STORM_WAL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "storm/object_store.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/wire.h"

namespace bestpeer::storm {

/// Logical write-ahead log for a Storm store: every Put/Delete is
/// appended (and fsynced) before it is applied, so a crash between the
/// append and the page flush loses nothing. Recovery replays the log
/// idempotently on open; a checkpoint (after flushing all pages)
/// truncates it.
///
/// Record format: [u32 body length][body][u64 FNV-1a checksum of body],
/// where the body is a Record coded by util/wire.h. Replay stops cleanly
/// at the first torn record, one whose length, body or checksum is cut
/// short or wrong (the standard crash-tail rule). A body that passes its
/// checksum but does not decode fails the replay with the decode error.
class WriteAheadLog {
 public:
  enum class RecordType : uint8_t {
    kPut = 1,
    kDelete = 2,
    kCheckpoint = 3,
  };

  /// A log record body: its type, then the object id (Put and Delete),
  /// then the content (Put only).
  struct Record {
    RecordType type = RecordType::kCheckpoint;
    ObjectId object_id = 0;
    Bytes content;

    static Status Wire(auto& m, auto& io) {
      BP_RETURN_IF_ERROR(io(wire::Enum(m.type, RecordType::kPut,
                                       RecordType::kCheckpoint)));
      if (m.type == RecordType::kCheckpoint) return Status::OK();
      BP_RETURN_IF_ERROR(io(m.object_id));
      if (m.type == RecordType::kDelete) return Status::OK();
      return io(m.content);
    }
  };

  using ReplayVisitor = std::function<Status(const Record&)>;

  /// Opens (creating if needed) the log at `path`.
  static Result<std::unique_ptr<WriteAheadLog>> Open(const std::string& path);

  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends (and flushes) a Put record.
  Status AppendPut(ObjectId id, const Bytes& content);

  /// Appends (and flushes) a Delete record.
  Status AppendDelete(ObjectId id);

  /// Replays every intact record from the start of the log, newest
  /// checkpoint last; stops silently at the first torn record. Returns
  /// the number of records visited.
  Result<size_t> Replay(const ReplayVisitor& visitor);

  /// Truncates the log after a successful checkpoint (all dirty state
  /// flushed by the caller first).
  Status Checkpoint();

  /// Current log size in bytes.
  Result<size_t> SizeBytes() const;

  uint64_t records_appended() const { return records_appended_; }

 private:
  WriteAheadLog(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  Status AppendRecord(const Record& record);

  std::FILE* file_;
  std::string path_;
  uint64_t records_appended_ = 0;
};

}  // namespace bestpeer::storm

#endif  // BESTPEER_STORM_WAL_H_
