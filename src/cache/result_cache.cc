#include "cache/result_cache.h"

#include <utility>

#include "util/hash.h"

namespace bestpeer::cache {

ResultCache::ResultCache(ResultCacheOptions options)
    : options_(std::move(options)),
      sketch_(options_.byte_budget / 256 + 64) {
  if (options_.metrics != nullptr) {
    metrics::Registry* reg = options_.metrics;
    hits_.set_total(reg->GetCounter("cache.hits"));
    misses_.set_total(reg->GetCounter("cache.misses"));
    insertions_.set_total(reg->GetCounter("cache.insertions"));
    evictions_.set_total(reg->GetCounter("cache.evictions"));
    invalidations_.set_total(reg->GetCounter("cache.invalidations"));
    admission_rejected_.set_total(reg->GetCounter("cache.admission_rejected"));
    bytes_g_ = reg->GetGauge("cache.bytes");
    entries_g_ = reg->GetGauge("cache.entries");
  }
}

void ResultCache::Flight(obs::EventType type, uint64_t a, uint64_t b) {
  if (options_.flight == nullptr) return;
  obs::FlightEvent e;
  e.ts = options_.now ? options_.now() : 0;
  e.type = type;
  e.node = options_.node;
  e.a = a;
  e.b = b;
  options_.flight->Record(e);
}

void ResultCache::RecordAccess(std::string_view key) {
  sketch_.Record(Fnv1a64(key));
}

uint32_t ResultCache::EstimateFrequency(std::string_view key) const {
  return sketch_.Estimate(Fnv1a64(key));
}

size_t ResultCache::SliceBytes(std::string_view key,
                               const CachedSlice& slice) {
  // Accounted size: key text + ids + fixed per-slice overhead for the
  // map node and bookkeeping fields.
  return key.size() + slice.ids.size() * sizeof(uint64_t) + 64;
}

size_t ResultCache::slice_count() const {
  size_t n = 0;
  for (const auto& [key, entry] : entries_) n += entry.slices.size();
  return n;
}

const CachedSlice* ResultCache::ProbeSlice(std::string_view key,
                                           uint64_t source,
                                           uint64_t current_epoch) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    auto slice_it = it->second.slices.find(source);
    if (slice_it != it->second.slices.end()) {
      if (slice_it->second.epoch == current_epoch) {
        hits_.Increment();
        Touch(it->second);
        Flight(obs::EventType::kCacheHit, Fnv1a64(key), current_epoch);
        return &slice_it->second;
      }
      // Stale: the producer's store mutated since the slice was taken.
      // Dropping here — instead of ever returning it — is the whole
      // invalidation contract.
      it->second.bytes -= slice_it->second.bytes;
      bytes_used_ -= slice_it->second.bytes;
      it->second.slices.erase(slice_it);
      invalidations_.Increment();
      Flight(obs::EventType::kCacheInvalidate, Fnv1a64(key), current_epoch);
      if (it->second.slices.empty()) {
        entries_.erase(it);
        entries_g_->Set(static_cast<double>(entries_.size()));
      }
      bytes_g_->Set(static_cast<double>(bytes_used_));
    }
  }
  misses_.Increment();
  Flight(obs::EventType::kCacheMiss, Fnv1a64(key), current_epoch);
  return nullptr;
}

bool ResultCache::InsertSlice(std::string_view key, CachedSlice slice) {
  slice.bytes = SliceBytes(key, slice);
  if (slice.bytes > options_.byte_budget) return false;

  auto it = entries_.find(key);
  if (it == entries_.end()) {
    // New key competing for space: TinyLFU admission — only displace the
    // LRU victim when this key is estimated at least as hot.
    if (!entries_.empty() &&
        bytes_used_ + slice.bytes > options_.byte_budget) {
      auto victim = entries_.begin();
      for (auto cand = entries_.begin(); cand != entries_.end(); ++cand) {
        if (cand->second.last_used < victim->second.last_used) victim = cand;
      }
      if (EstimateFrequency(key) < EstimateFrequency(victim->first)) {
        admission_rejected_.Increment();
        return false;
      }
    }
    it = entries_.emplace(std::string(key), Entry{}).first;
  }

  Entry& entry = it->second;
  auto [slice_it, inserted] = entry.slices.emplace(slice.source, slice);
  if (!inserted) {
    entry.bytes -= slice_it->second.bytes;
    bytes_used_ -= slice_it->second.bytes;
    slice_it->second = std::move(slice);
  }
  entry.bytes += slice_it->second.bytes;
  bytes_used_ += slice_it->second.bytes;
  Touch(entry);
  insertions_.Increment();
  EvictToBudget(it->first);
  bytes_g_->Set(static_cast<double>(bytes_used_));
  entries_g_->Set(static_cast<double>(entries_.size()));
  return true;
}

void ResultCache::EvictToBudget(std::string_view keep) {
  while (bytes_used_ > options_.byte_budget && entries_.size() > 1) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == keep) continue;
      if (victim == entries_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == entries_.end()) break;
    bytes_used_ -= victim->second.bytes;
    evictions_.Increment();
    Flight(obs::EventType::kCacheEvict, Fnv1a64(victim->first),
           victim->second.bytes);
    entries_.erase(victim);
  }
}

const std::map<uint64_t, CachedSlice>* ResultCache::SlicesFor(
    std::string_view key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  Touch(it->second);
  return &it->second.slices;
}

size_t ResultCache::InvalidateSource(uint64_t source,
                                     uint64_t current_epoch) {
  size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto slice_it = it->second.slices.find(source);
    if (slice_it != it->second.slices.end() &&
        slice_it->second.epoch < current_epoch) {
      it->second.bytes -= slice_it->second.bytes;
      bytes_used_ -= slice_it->second.bytes;
      it->second.slices.erase(slice_it);
      ++dropped;
      invalidations_.Increment();
      Flight(obs::EventType::kCacheInvalidate, Fnv1a64(it->first),
             current_epoch);
      if (it->second.slices.empty()) {
        it = entries_.erase(it);
        continue;
      }
    }
    ++it;
  }
  if (dropped > 0) {
    bytes_g_->Set(static_cast<double>(bytes_used_));
    entries_g_->Set(static_cast<double>(entries_.size()));
  }
  return dropped;
}

void ResultCache::DropSlice(std::string_view key, uint64_t source) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  auto slice_it = it->second.slices.find(source);
  if (slice_it == it->second.slices.end()) return;
  it->second.bytes -= slice_it->second.bytes;
  bytes_used_ -= slice_it->second.bytes;
  it->second.slices.erase(slice_it);
  if (it->second.slices.empty()) entries_.erase(it);
  bytes_g_->Set(static_cast<double>(bytes_used_));
  entries_g_->Set(static_cast<double>(entries_.size()));
}

}  // namespace bestpeer::cache
