#ifndef BESTPEER_STORM_OBJECT_STORE_H_
#define BESTPEER_STORM_OBJECT_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "storm/buffer_pool.h"
#include "util/bytes.h"
#include "util/result.h"

namespace bestpeer::storm {

/// Identifier of a stored object.
using ObjectId = uint64_t;

/// Object storage over slotted pages: each object is split into chunks,
/// one record per chunk, each record carrying (object id, chunk index,
/// chunk count). The directory is rebuilt by a full scan at Open(), so a
/// store survives process restarts with no separate catalog structure.
class ObjectStore {
 public:
  /// Chunk payload size; objects larger than this span multiple records.
  static constexpr size_t kChunkDataSize = 3500;
  /// Per-record header: id (8) + chunk (2) + nchunks (2).
  static constexpr size_t kRecordHeaderSize = 12;

  /// Opens a store over `pool` (not owned), scanning existing pages to
  /// rebuild the object directory.
  static Result<std::unique_ptr<ObjectStore>> Open(BufferPool* pool);

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Stores a new object; AlreadyExists if the id is taken.
  Status Put(ObjectId id, const Bytes& data);

  /// Reads an object back.
  Result<Bytes> Get(ObjectId id);

  /// Removes an object.
  Status Delete(ObjectId id);

  /// True iff an object with this id exists.
  bool Contains(ObjectId id) const;

  /// Number of stored objects.
  size_t object_count() const { return directory_.size(); }

  /// All object ids in ascending order.
  std::vector<ObjectId> ListIds() const;

  /// Invokes `fn` with every object's content (ascending id); stops on
  /// error. Fetches one page per chunk record, in chunk order, as Get()
  /// does. The view points into the pinned page for a one-chunk object
  /// and into a scan-local buffer otherwise: it is valid only during the
  /// call, and `fn` must not mutate the store (a Put may compact the
  /// pinned page).
  Status ForEach(
      const std::function<Status(ObjectId, std::string_view)>& fn);

 private:
  struct Loc {
    PageId page;
    uint16_t slot;
  };

  explicit ObjectStore(BufferPool* pool) : pool_(pool) {}

  Status ScanExisting();

  /// Inserts one chunk record into the first page, in page order, whose
  /// free-space estimate fits it, or into a newly allocated page.
  Result<Loc> InsertRecord(const Bytes& record);

  /// Records page `pid`'s free-space estimate.
  void SetFreeSpace(PageId pid, size_t bytes);

  BufferPool* pool_;
  /// object id -> chunk locations in chunk order.
  std::map<ObjectId, std::vector<Loc>> directory_;
  /// Approximate free bytes per data page, indexed by page id
  /// (heuristic allocator state); 0 for a page the store never formatted.
  std::vector<size_t> free_space_;
};

}  // namespace bestpeer::storm

#endif  // BESTPEER_STORM_OBJECT_STORE_H_
