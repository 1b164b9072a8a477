#include "storm/storm.h"

#include <algorithm>
#include <set>

#include "storm/query_expr.h"
#include "util/strings.h"

namespace bestpeer::storm {

Result<std::unique_ptr<Storm>> Storm::Open(const StormOptions& options) {
  auto storm = std::unique_ptr<Storm>(new Storm());
  storm->options_ = options;
  if (options.path.empty()) {
    storm->pager_ = std::make_unique<MemPager>();
  } else {
    BP_ASSIGN_OR_RETURN(auto fp, FilePager::Open(options.path));
    storm->pager_ = std::move(fp);
  }
  BufferPoolOptions pool_options;
  pool_options.frames = options.buffer_frames;
  pool_options.policy = options.replacement;
  pool_options.metrics = options.metrics;
  pool_options.metrics_label = options.metrics_label;
  BP_ASSIGN_OR_RETURN(storm->pool_,
                      BufferPool::Create(storm->pager_.get(), pool_options));
  BP_ASSIGN_OR_RETURN(storm->objects_, ObjectStore::Open(storm->pool_.get()));
  if (options.build_index) {
    BP_RETURN_IF_ERROR(storm->objects_->ForEach(
        [&storm](ObjectId id, std::string_view data) {
          storm->index_.Add(id, data);
          return Status::OK();
        }));
  }
  if (!options.wal_path.empty()) {
    BP_ASSIGN_OR_RETURN(storm->wal_, WriteAheadLog::Open(options.wal_path));
    // Crash recovery: re-apply every intact logged operation that is not
    // yet reflected in the base store. Replay is idempotent.
    BP_RETURN_IF_ERROR(
        storm->wal_
            ->Replay([&storm](const WriteAheadLog::Record& record) {
              switch (record.type) {
                case WriteAheadLog::RecordType::kPut:
                  if (!storm->objects_->Contains(record.object_id)) {
                    BP_RETURN_IF_ERROR(storm->objects_->Put(
                        record.object_id, record.content));
                    if (storm->options_.build_index) {
                      storm->index_.Add(record.object_id,
                                        ToString(record.content));
                    }
                  }
                  break;
                case WriteAheadLog::RecordType::kDelete:
                  if (storm->objects_->Contains(record.object_id)) {
                    storm->index_.Remove(record.object_id);
                    BP_RETURN_IF_ERROR(
                        storm->objects_->Delete(record.object_id));
                  }
                  break;
                case WriteAheadLog::RecordType::kCheckpoint:
                  break;
              }
              return Status::OK();
            })
            .status());
  }
  return storm;
}

void Storm::BumpEpoch(std::unique_lock<std::mutex>& lock) {
  const uint64_t epoch = ++mutation_epoch_;
  // Every cached entry was computed at an older epoch and can never be
  // served again; dropping them now keeps dead results from counting
  // toward query_cache_entries and evicting fresh entries.
  query_cache_.clear();
  // The node's fan-out (cache invalidation, summary refresh, gossip) may
  // read the store again, so the listener runs unlocked.
  lock.unlock();
  if (mutation_listener_) mutation_listener_(epoch);
}

Status Storm::Put(ObjectId id, const Bytes& data) {
  std::unique_lock<std::mutex> lock(mu_);
  if (objects_->Contains(id)) {
    return Status::AlreadyExists("object " + std::to_string(id));
  }
  // Log before apply: a crash after the append replays the Put on open.
  if (wal_ != nullptr) BP_RETURN_IF_ERROR(wal_->AppendPut(id, data));
  BP_RETURN_IF_ERROR(objects_->Put(id, data));
  if (options_.build_index) index_.Add(id, ToString(data));
  BumpEpoch(lock);
  return Status::OK();
}

Result<Bytes> Storm::Get(ObjectId id) {
  std::lock_guard<std::mutex> lock(mu_);
  return objects_->Get(id);
}

Status Storm::Delete(ObjectId id) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!objects_->Contains(id)) {
    return Status::NotFound("object " + std::to_string(id));
  }
  if (wal_ != nullptr) BP_RETURN_IF_ERROR(wal_->AppendDelete(id));
  index_.Remove(id);
  BP_RETURN_IF_ERROR(objects_->Delete(id));
  BumpEpoch(lock);
  return Status::OK();
}

Status Storm::Update(ObjectId id, const Bytes& data) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!objects_->Contains(id)) {
    return Status::NotFound("object " + std::to_string(id));
  }
  // Reject payloads the store can never hold before touching anything,
  // so the common Put failure mode cannot strand a half-applied update.
  if (data.size() > ObjectStore::kChunkDataSize * 0xFFFF) {
    return Status::InvalidArgument("object too large");
  }
  BP_ASSIGN_OR_RETURN(Bytes old_data, objects_->Get(id));
  // Log before apply, matching Put/Delete: replay is idempotent and the
  // delete+put pair converges the store to the new content.
  if (wal_ != nullptr) {
    BP_RETURN_IF_ERROR(wal_->AppendDelete(id));
    BP_RETURN_IF_ERROR(wal_->AppendPut(id, data));
  }
  BP_RETURN_IF_ERROR(objects_->Delete(id));
  Status put = objects_->Put(id, data);
  if (!put.ok()) {
    // Restore the old content so the failed update is a clean no-op
    // with no epoch bump.
    Status rollback = objects_->Put(id, old_data);
    if (rollback.ok()) return put;
    // Rollback also failed (pager I/O): the object is gone. Drop its
    // postings so index and store agree, and report the one mutation
    // that did happen.
    index_.Remove(id);
    BumpEpoch(lock);
    return put;
  }
  // Add() replaces the old postings of id wholesale, so the index never
  // keeps tokens from the previous content.
  if (options_.build_index) index_.Add(id, ToString(data));
  BumpEpoch(lock);
  return Status::OK();
}

bool Storm::Contains(ObjectId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return objects_->Contains(id);
}

uint64_t Storm::mutation_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mutation_epoch_;
}

uint64_t Storm::query_cache_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_hits_;
}

uint64_t Storm::query_cache_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_misses_;
}

size_t Storm::query_cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return query_cache_.size();
}

size_t Storm::object_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return objects_->object_count();
}

std::vector<ObjectId> Storm::ListIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return objects_->ListIds();
}

Result<Storm::ScanResult> Storm::ScanSearch(std::string_view query) {
  BP_ASSIGN_OR_RETURN(QueryExpr expr, QueryExpr::Parse(query));
  expr.Normalize();
  const std::string canonical = expr.ToString();

  std::lock_guard<std::mutex> lock(mu_);
  if (options_.enable_query_cache) {
    auto it = query_cache_.find(canonical);
    if (it != query_cache_.end()) {
      if (it->second.epoch == mutation_epoch_) {
        ++cache_hits_;
        it->second.last_used = ++cache_clock_;
        ScanResult cached;
        cached.matches = it->second.matches;
        cached.objects_scanned = 0;
        cached.from_cache = true;
        return cached;
      }
      // Stale epoch: BumpEpoch() clears the cache eagerly so this should
      // be unreachable, but purge defensively rather than let a dead
      // entry occupy capacity.
      query_cache_.erase(it);
    }
    ++cache_misses_;
  }

  ScanResult result;
  BP_RETURN_IF_ERROR(
      objects_->ForEach([&result, &expr](ObjectId id, std::string_view data) {
        ++result.objects_scanned;
        if (expr.Matches(data)) {
          result.matches.push_back(id);
        }
        return Status::OK();
      }));

  if (options_.enable_query_cache) {
    if (query_cache_.size() >= options_.query_cache_entries &&
        query_cache_.find(canonical) == query_cache_.end()) {
      // Evict the least recently used entry.
      auto victim = query_cache_.begin();
      for (auto it = query_cache_.begin(); it != query_cache_.end(); ++it) {
        if (it->second.last_used < victim->second.last_used) victim = it;
      }
      query_cache_.erase(victim);
    }
    CachedQuery entry;
    entry.epoch = mutation_epoch_;
    entry.matches = result.matches;
    entry.last_used = ++cache_clock_;
    query_cache_[canonical] = std::move(entry);
  }
  return result;
}

Result<std::vector<ObjectId>> Storm::IndexSearch(
    std::string_view query, size_t* postings_touched) const {
  if (postings_touched != nullptr) *postings_touched = 0;
  if (!options_.build_index) {
    return Status::FailedPrecondition("keyword index disabled");
  }
  BP_ASSIGN_OR_RETURN(QueryExpr expr, QueryExpr::Parse(query));
  expr.Normalize();  // Dedup terms so no posting list intersects twice.
  std::lock_guard<std::mutex> lock(mu_);
  std::set<ObjectId> results;
  std::vector<ObjectId> acc;
  std::vector<ObjectId> merged;
  for (const auto& branch : expr.dnf()) {
    // Gather every AND term's posting list; a term with no postings
    // empties the whole branch without touching any list.
    std::vector<const std::vector<ObjectId>*> lists;
    lists.reserve(branch.size());
    bool dead_branch = false;
    for (const auto& term : branch) {
      const std::vector<ObjectId>* postings = index_.Postings(term);
      if (postings == nullptr) {
        dead_branch = true;
        break;
      }
      lists.push_back(postings);
    }
    if (dead_branch || lists.empty()) continue;
    // Intersect smallest-first: the accumulator can only shrink, so
    // every later gallop runs from the rarest candidate set.
    std::sort(lists.begin(), lists.end(),
              [](const std::vector<ObjectId>* a, const std::vector<ObjectId>* b) {
                return a->size() < b->size();
              });
    acc = *lists.front();
    if (postings_touched != nullptr) *postings_touched += acc.size();
    for (size_t t = 1; t < lists.size() && !acc.empty(); ++t) {
      KeywordIndex::Intersect(acc, *lists[t], &merged, postings_touched);
      acc.swap(merged);
    }
    results.insert(acc.begin(), acc.end());
  }
  return std::vector<ObjectId>(results.begin(), results.end());
}

Status Storm::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_->FlushAll();
}

Status Storm::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  BP_RETURN_IF_ERROR(pool_->FlushAll());
  if (wal_ != nullptr) BP_RETURN_IF_ERROR(wal_->Checkpoint());
  return Status::OK();
}

}  // namespace bestpeer::storm
