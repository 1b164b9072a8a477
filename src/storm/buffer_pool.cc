#include "storm/buffer_pool.h"

#include <cassert>
#include <utility>

namespace bestpeer::storm {

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    id_ = other.id_;
    page_ = other.page_;
    dirty_ = other.dirty_;
    other.pool_ = nullptr;
    other.page_ = nullptr;
    other.dirty_ = false;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

void PageGuard::Release() {
  if (pool_ != nullptr && page_ != nullptr) {
    pool_->Unpin(id_, dirty_);
  }
  pool_ = nullptr;
  page_ = nullptr;
  dirty_ = false;
}

BufferPool::BufferPool(Pager* pager,
                       std::unique_ptr<ReplacementPolicy> policy,
                       const BufferPoolOptions& options)
    : pager_(pager), policy_(std::move(policy)) {
  frames_.resize(options.frames);
  free_frames_.reserve(options.frames);
  // Hand out low frame ids first.
  for (size_t i = options.frames; i > 0; --i) free_frames_.push_back(i - 1);
  if (options.metrics != nullptr) {
    metrics::LabelSet labels;
    if (!options.metrics_label.empty()) {
      labels.emplace_back("node", options.metrics_label);
    }
    metrics::Registry* reg = options.metrics;
    hits_.set_total(reg->GetCounter("storm.pool_hits", labels));
    misses_.set_total(reg->GetCounter("storm.pool_misses", labels));
    evictions_.set_total(reg->GetCounter("storm.pool_evictions", labels));
    writebacks_.set_total(reg->GetCounter("storm.pool_writebacks", labels));
  }
}

Result<std::unique_ptr<BufferPool>> BufferPool::Create(
    Pager* pager, const BufferPoolOptions& options) {
  if (options.frames == 0) {
    return Status::InvalidArgument("buffer pool needs at least one frame");
  }
  BP_ASSIGN_OR_RETURN(auto policy, MakeReplacementPolicy(options.policy));
  return std::unique_ptr<BufferPool>(
      new BufferPool(pager, std::move(policy), options));
}

Result<FrameId> BufferPool::AcquireFrame() {
  if (!free_frames_.empty()) {
    FrameId f = free_frames_.back();
    free_frames_.pop_back();
    if (frames_[f].page == nullptr) frames_[f].page = std::make_unique<Page>();
    return f;
  }
  std::optional<FrameId> victim = policy_->ChooseVictim();
  if (!victim.has_value()) {
    return Status::ResourceExhausted("all buffer frames are pinned");
  }
  Frame& frame = frames_[*victim];
  assert(frame.in_use && frame.pins == 0);
  if (frame.dirty) {
    BP_RETURN_IF_ERROR(pager_->Write(frame.page_id, *frame.page));
    writebacks_.Increment();
  }
  page_table_.erase(frame.page_id);
  frame.in_use = false;
  frame.dirty = false;
  evictions_.Increment();
  return *victim;
}

Result<PageGuard> BufferPool::Fetch(PageId id) {
  auto it = page_table_.find(id);
  if (it != page_table_.end()) {
    Frame& frame = frames_[it->second];
    if (frame.pins == 0) policy_->OnPinned(it->second);
    ++frame.pins;
    hits_.Increment();
    return PageGuard(this, id, frame.page.get());
  }
  misses_.Increment();
  BP_ASSIGN_OR_RETURN(FrameId f, AcquireFrame());
  Frame& frame = frames_[f];
  Status s = pager_->Read(id, frame.page.get());
  if (!s.ok()) {
    free_frames_.push_back(f);
    return s;
  }
  frame.page_id = id;
  frame.in_use = true;
  frame.dirty = false;
  frame.pins = 1;
  page_table_[id] = f;
  return PageGuard(this, id, frame.page.get());
}

Result<PageGuard> BufferPool::New() {
  BP_ASSIGN_OR_RETURN(PageId id, pager_->Allocate());
  BP_ASSIGN_OR_RETURN(FrameId f, AcquireFrame());
  Frame& frame = frames_[f];
  frame.page->Init(id);
  frame.page_id = id;
  frame.in_use = true;
  frame.dirty = true;
  frame.pins = 1;
  page_table_[id] = f;
  return PageGuard(this, id, frame.page.get());
}

void BufferPool::Unpin(PageId id, bool dirty) {
  auto it = page_table_.find(id);
  assert(it != page_table_.end() && "unpin of unbuffered page");
  if (it == page_table_.end()) return;
  Frame& frame = frames_[it->second];
  assert(frame.pins > 0);
  if (dirty) frame.dirty = true;
  --frame.pins;
  if (frame.pins == 0) policy_->OnEvictable(it->second);
}

Status BufferPool::FlushAll() {
  for (auto& frame : frames_) {
    if (frame.in_use && frame.dirty) {
      BP_RETURN_IF_ERROR(pager_->Write(frame.page_id, *frame.page));
      frame.dirty = false;
      writebacks_.Increment();
    }
  }
  return pager_->Sync();
}

}  // namespace bestpeer::storm
