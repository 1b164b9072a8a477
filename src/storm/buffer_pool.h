#ifndef BESTPEER_STORM_BUFFER_POOL_H_
#define BESTPEER_STORM_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storm/page.h"
#include "storm/pager.h"
#include "storm/replacement.h"
#include "util/metrics.h"
#include "util/result.h"

namespace bestpeer::storm {

/// Buffer pool configuration.
struct BufferPoolOptions {
  /// Number of in-memory frames.
  size_t frames = 64;
  /// Replacement policy name: "lru", "fifo", "clock", "lfu".
  std::string policy = "lru";
  /// Metrics sink (not owned; must outlive the pool). nullptr routes
  /// increments to no-op handles.
  metrics::Registry* metrics = nullptr;
  /// Label value attached to this pool's instruments as {node=<label>},
  /// so per-node pools stay distinguishable in one registry. Empty emits
  /// unlabeled instruments.
  std::string metrics_label;
};

class BufferPool;

/// RAII pin on a buffered page; unpins on destruction.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, PageId id, Page* page)
      : pool_(pool), id_(id), page_(page) {}
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  ~PageGuard();

  /// The pinned page; valid while the guard lives.
  Page* page() { return page_; }
  const Page* page() const { return page_; }
  PageId id() const { return id_; }

  /// Marks the page dirty so it is written back before eviction.
  void MarkDirty() { dirty_ = true; }

  /// Explicit early release (also performed by the destructor).
  void Release();

  /// True iff the guard holds a pin.
  bool valid() const { return page_ != nullptr; }

 private:
  BufferPool* pool_ = nullptr;
  PageId id_ = 0;
  Page* page_ = nullptr;
  bool dirty_ = false;
};

/// Caches pages of a Pager in a fixed set of frames with a pluggable
/// replacement policy; pin-counted, write-back.
class BufferPool {
 public:
  /// Creates a pool over `pager` (not owned; must outlive the pool).
  static Result<std::unique_ptr<BufferPool>> Create(
      Pager* pager, const BufferPoolOptions& options);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from the pager on a miss.
  Result<PageGuard> Fetch(PageId id);

  /// Allocates a fresh page via the pager, formats it and pins it.
  Result<PageGuard> New();

  /// Unpins; normally called through PageGuard.
  void Unpin(PageId id, bool dirty);

  /// Writes back all dirty pages (pinned ones included) and syncs.
  Status FlushAll();

  /// Statistics.
  uint64_t hits() const { return hits_.value(); }
  uint64_t misses() const { return misses_.value(); }
  uint64_t evictions() const { return evictions_.value(); }
  uint64_t writebacks() const { return writebacks_.value(); }
  size_t frame_count() const { return frames_.size(); }
  std::string_view policy_name() const { return policy_->name(); }
  Pager* pager() { return pager_; }

 private:
  struct Frame {
    PageId page_id = 0;
    bool in_use = false;
    bool dirty = false;
    int pins = 0;
    /// Allocated (zeroed) the first time the frame leaves the free list,
    /// so a pool costs memory only for the frames its store reaches.
    std::unique_ptr<Page> page;
  };

  BufferPool(Pager* pager, std::unique_ptr<ReplacementPolicy> policy,
             const BufferPoolOptions& options);

  /// Finds a free frame, evicting if necessary; its page is allocated.
  Result<FrameId> AcquireFrame();

  Pager* pager_;
  std::unique_ptr<ReplacementPolicy> policy_;
  std::vector<Frame> frames_;
  std::vector<FrameId> free_frames_;
  std::unordered_map<PageId, FrameId> page_table_;

  metrics::Counter hits_;
  metrics::Counter misses_;
  metrics::Counter evictions_;
  metrics::Counter writebacks_;
};

}  // namespace bestpeer::storm

#endif  // BESTPEER_STORM_BUFFER_POOL_H_
