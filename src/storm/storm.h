#ifndef BESTPEER_STORM_STORM_H_
#define BESTPEER_STORM_STORM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "storm/buffer_pool.h"
#include "storm/keyword_index.h"
#include "storm/object_store.h"
#include "storm/pager.h"
#include "storm/wal.h"
#include "util/result.h"

namespace bestpeer::storm {

/// Storm facade configuration.
struct StormOptions {
  /// File path for persistence; empty runs fully in memory.
  std::string path;
  /// Buffer-pool frames.
  size_t buffer_frames = 64;
  /// Replacement policy: "lru", "fifo", "clock", "lfu".
  std::string replacement = "lru";
  /// Maintain the in-memory keyword index over object contents.
  bool build_index = true;
  /// Cache ScanSearch results per query text; invalidated by any Put or
  /// Delete. Turns repeated identical searches into O(1) lookups.
  bool enable_query_cache = false;
  /// Maximum cached queries (LRU eviction).
  size_t query_cache_entries = 64;
  /// Write-ahead log path; empty disables the WAL. With a WAL, every
  /// Put/Delete is durable the moment it returns — even over an
  /// in-memory pager (the log alone reconstructs the store on reopen).
  std::string wal_path;
  /// Metrics sink forwarded to the buffer pool (not owned; must outlive
  /// the store). nullptr routes increments to no-op handles.
  metrics::Registry* metrics = nullptr;
  /// Label value for this store's instruments ({node=<label>}); empty
  /// emits unlabeled instruments.
  std::string metrics_label;
};

/// The storage manager each BestPeer node runs (the paper's "StorM, a
/// 100% Java persistent storage manager"; here a C++ engine with the same
/// role). Stores shared objects and serves the keyword searches issued by
/// StorM agents.
///
/// Threading: the public calls below hold one mutex per store, so a scan
/// on a TCP worker (DESIGN.md §8) and the reactor's fetches, replica
/// pushes and shares of the same store take turns; each call sees the
/// store between two whole mutations. The mutation listener runs after
/// the unlock, so it may call back into the store. SetMutationListener,
/// wal(), buffer_pool() and index() are not locked: they are for set-up
/// and for the thread that makes the mutations.
class Storm {
 public:
  /// Result of a full-scan keyword search.
  struct ScanResult {
    std::vector<ObjectId> matches;
    /// Objects examined — the quantity the simulation charges CPU for.
    /// Zero when the result was served from the query cache.
    size_t objects_scanned = 0;
    /// True iff the result came from the query cache.
    bool from_cache = false;
  };

  /// Opens (or creates) a store.
  static Result<std::unique_ptr<Storm>> Open(const StormOptions& options);

  Storm(const Storm&) = delete;
  Storm& operator=(const Storm&) = delete;

  /// Stores a new object whose payload is `data` (text payloads are
  /// indexed when build_index is on).
  Status Put(ObjectId id, const Bytes& data);

  /// Reads an object.
  Result<Bytes> Get(ObjectId id);

  /// Deletes an object.
  Status Delete(ObjectId id);

  /// Replaces an existing object's content as one atomic mutation: on
  /// success the store holds the new content, on failure the old content
  /// is retained untouched, and the mutation epoch bumps exactly once
  /// (only on success). NotFound if the object does not exist.
  Status Update(ObjectId id, const Bytes& data);

  /// True iff the object exists.
  bool Contains(ObjectId id) const;

  /// Full-scan search: examines every object's content against `query`,
  /// a QueryExpr ("a b OR c": whole-token, case-insensitive terms).
  /// This is the code path the paper's StorM agent runs ("makes a
  /// comparison for each object stored in the Shared-StorM database with
  /// its query"). With enable_query_cache, repeated identical queries
  /// are answered from cache until the store mutates.
  Result<ScanResult> ScanSearch(std::string_view query);

  /// Index-backed search (fast path; requires build_index). Evaluates
  /// the same query language via sorted-posting-list intersections
  /// (smallest list first, galloping search) and unions. When
  /// `postings_touched` is non-null it receives the number of postings
  /// examined — the CPU accounting unit of the index path, the analogue
  /// of ScanResult::objects_scanned.
  Result<std::vector<ObjectId>> IndexSearch(
      std::string_view query, size_t* postings_touched = nullptr) const;

  /// Monotone counter bumped by every Put/Delete (cache validity token).
  uint64_t mutation_epoch() const;

  /// Invoked with the new epoch after every Put/Delete/Update bump (one
  /// fire per logical mutation — Update counts as a single mutation).
  /// The node layer hooks this to invalidate result caches.
  void SetMutationListener(std::function<void(uint64_t)> listener) {
    mutation_listener_ = std::move(listener);
  }

  /// Query-cache statistics (a scan writes them, so these lock too).
  uint64_t query_cache_hits() const;
  uint64_t query_cache_misses() const;
  /// Live query-cache entries. Stale-epoch entries are purged eagerly on
  /// every mutation, so this never counts unreachable results.
  size_t query_cache_size() const;

  /// Writes all dirty state back to the pager.
  Status Flush();

  /// Flushes everything and truncates the WAL (no-op without a WAL).
  /// After a checkpoint, recovery starts from the flushed pages.
  Status Checkpoint();

  /// The WAL, if configured (for stats/tests).
  WriteAheadLog* wal() { return wal_.get(); }

  size_t object_count() const;
  std::vector<ObjectId> ListIds() const;
  BufferPool& buffer_pool() { return *pool_; }
  const KeywordIndex& index() const { return index_; }

 private:
  Storm() = default;

  /// One logical mutation: bumps the epoch, drops the (now entirely
  /// stale) query cache, releases `lock` (mu_) and notifies the listener.
  void BumpEpoch(std::unique_lock<std::mutex>& lock);

  struct CachedQuery {
    uint64_t epoch = 0;
    std::vector<ObjectId> matches;
    uint64_t last_used = 0;
  };

  /// Serializes the public calls (see the class comment).
  mutable std::mutex mu_;
  StormOptions options_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<ObjectStore> objects_;
  std::unique_ptr<WriteAheadLog> wal_;
  KeywordIndex index_;
  std::function<void(uint64_t)> mutation_listener_;
  std::map<std::string, CachedQuery, std::less<>> query_cache_;
  uint64_t mutation_epoch_ = 0;
  uint64_t cache_clock_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
};

}  // namespace bestpeer::storm

#endif  // BESTPEER_STORM_STORM_H_
