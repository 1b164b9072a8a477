#include "storm/wal.h"

#include <cerrno>
#include <cstring>

#include "util/hash.h"

namespace bestpeer::storm {

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) f = std::fopen(path.c_str(), "w+b");
  if (f == nullptr) {
    return Status::IoError("cannot open WAL " + path + ": " +
                           std::strerror(errno));
  }
  return std::unique_ptr<WriteAheadLog>(new WriteAheadLog(f, path));
}

WriteAheadLog::~WriteAheadLog() {
  if (file_ != nullptr) std::fclose(file_);
}

Status WriteAheadLog::AppendRecord(const Record& record) {
  // Frame = [u32 body_len][body][u64 checksum].
  const Bytes body = wire::Encode(record);
  uint64_t checksum = Fnv1a64(body.data(), body.size());
  uint32_t len = static_cast<uint32_t>(body.size());

  if (std::fseek(file_, 0, SEEK_END) != 0) {
    return Status::IoError("WAL seek failed");
  }
  if (std::fwrite(&len, sizeof(len), 1, file_) != 1 ||
      std::fwrite(body.data(), 1, body.size(), file_) != body.size() ||
      std::fwrite(&checksum, sizeof(checksum), 1, file_) != 1) {
    return Status::IoError("WAL append failed");
  }
  if (std::fflush(file_) != 0) {
    return Status::IoError("WAL flush failed");
  }
  ++records_appended_;
  return Status::OK();
}

Status WriteAheadLog::AppendPut(ObjectId id, const Bytes& content) {
  return AppendRecord({RecordType::kPut, id, content});
}

Status WriteAheadLog::AppendDelete(ObjectId id) {
  return AppendRecord({RecordType::kDelete, id, {}});
}

Result<size_t> WriteAheadLog::Replay(const ReplayVisitor& visitor) {
  if (std::fseek(file_, 0, SEEK_SET) != 0) {
    return Status::IoError("WAL seek failed");
  }
  size_t visited = 0;
  for (;;) {
    uint32_t len = 0;
    if (std::fread(&len, sizeof(len), 1, file_) != 1) break;  // Clean end.
    if (len == 0 || len > (64u << 20)) break;  // Torn/garbage length.
    Bytes body(len);
    if (std::fread(body.data(), 1, len, file_) != len) break;  // Torn body.
    uint64_t stored = 0;
    if (std::fread(&stored, sizeof(stored), 1, file_) != 1) break;
    if (stored != Fnv1a64(body.data(), body.size())) break;  // Torn tail.

    // A body that passed its checksum but does not decode was written
    // wrong, not torn: fail the replay rather than drop acknowledged writes.
    BP_ASSIGN_OR_RETURN(Record record, wire::Decode<Record>(body));
    BP_RETURN_IF_ERROR(visitor(record));
    ++visited;
  }
  // Leave the write position at the end for subsequent appends.
  std::fseek(file_, 0, SEEK_END);
  return visited;
}

Status WriteAheadLog::Checkpoint() {
  // Truncate by reopening in write mode.
  std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "w+b");
  if (file_ == nullptr) {
    return Status::IoError("WAL truncate failed: " +
                           std::string(std::strerror(errno)));
  }
  return Status::OK();
}

Result<size_t> WriteAheadLog::SizeBytes() const {
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    return Status::IoError("WAL seek failed");
  }
  long size = std::ftell(file_);
  if (size < 0) return Status::IoError("WAL tell failed");
  return static_cast<size_t>(size);
}

}  // namespace bestpeer::storm
