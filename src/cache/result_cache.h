#ifndef BESTPEER_CACHE_RESULT_CACHE_H_
#define BESTPEER_CACHE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cache/frequency_sketch.h"
#include "obs/flight_recorder.h"
#include "util/metrics.h"
#include "util/sim_time.h"

namespace bestpeer::cache {

struct ResultCacheOptions {
  /// Total accounted bytes the cache may hold; the oldest entries are
  /// evicted past it. Inserts larger than the whole budget are rejected.
  size_t byte_budget = 256 * 1024;
  /// Metrics sink (not owned; may be null).
  metrics::Registry* metrics = nullptr;
  /// Flight recorder for cache events (not owned; may be null).
  obs::FlightRecorder* flight = nullptr;
  /// Node id stamped on flight events.
  uint32_t node = 0xFFFFFFFF;
  /// Clock for flight-event timestamps (unset records ts = 0).
  std::function<SimTime()> now;
};

/// The answers one producer node contributed to a query, as seen at
/// `epoch` of that producer's store. Only ids are kept: the base node
/// never stores result content, it records ids into the session — so a
/// slice is enough to materialize a repeat answer.
struct CachedSlice {
  /// Node whose store produced the answers.
  uint64_t source = 0;
  /// The producer's IndexEpoch (storm mutation epoch + 1) at scan time.
  /// A slice is only served while the producer still reports this epoch.
  uint64_t epoch = 0;
  /// Overlay hops the original answer travelled.
  uint16_t hops = 0;
  std::vector<uint64_t> ids;
  /// Accounted size; filled by InsertSlice.
  size_t bytes = 0;
};

/// Per-node query-result cache: entries keyed by the normalized query
/// expression, each holding one slice per producer node. Byte-budgeted
/// LRU with TinyLFU admission — a new key only displaces the LRU victim
/// when the frequency sketch says it is accessed at least as often.
/// Invalidation is lazy and epoch-driven: a probe with a newer producer
/// epoch drops the stale slice instead of serving it.
class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options);
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Counts one lookup of `key` in the admission sketch. Call once per
  /// query issued/served, before probing.
  void RecordAccess(std::string_view key);

  /// Sketch frequency estimate for `key` (hot-answer promotion signal).
  uint32_t EstimateFrequency(std::string_view key) const;

  /// The slice `source` contributed to `key`, provided it was recorded
  /// at exactly `current_epoch`. A stale slice (any other epoch) is
  /// dropped and counted as an invalidation, never returned. The pointer
  /// is valid until the next non-const call.
  const CachedSlice* ProbeSlice(std::string_view key, uint64_t source,
                                uint64_t current_epoch);

  /// Inserts (or replaces) `source`'s slice under `key`, enforcing
  /// admission and the byte budget. Returns false when the admission
  /// filter or the budget rejected it.
  bool InsertSlice(std::string_view key, CachedSlice slice);

  /// Every slice cached under `key` (nullptr when absent). Touches LRU.
  const std::map<uint64_t, CachedSlice>* SlicesFor(std::string_view key);

  /// Drops one slice (no-op when absent).
  void DropSlice(std::string_view key, uint64_t source);

  /// Drops every cached slice from `source` recorded before
  /// `current_epoch` — the push half of invalidation, driven by a
  /// gossiped epoch bump so the staleness never has to be probe-
  /// discovered. Returns the number of slices dropped (each counted as
  /// an invalidation).
  size_t InvalidateSource(uint64_t source, uint64_t current_epoch);

  // --- stats ------------------------------------------------------------

  uint64_t hits() const { return hits_.value(); }
  uint64_t misses() const { return misses_.value(); }
  uint64_t insertions() const { return insertions_.value(); }
  uint64_t evictions() const { return evictions_.value(); }
  uint64_t invalidations() const { return invalidations_.value(); }
  uint64_t admission_rejected() const { return admission_rejected_.value(); }
  size_t bytes_used() const { return bytes_used_; }
  size_t entry_count() const { return entries_.size(); }
  size_t slice_count() const;
  const FrequencySketch& sketch() const { return sketch_; }

 private:
  struct Entry {
    std::map<uint64_t, CachedSlice> slices;
    uint64_t last_used = 0;
    size_t bytes = 0;
  };

  static size_t SliceBytes(std::string_view key, const CachedSlice& slice);
  void Touch(Entry& entry) { entry.last_used = ++clock_; }
  /// Evicts LRU entries (never `keep`) until the budget holds again.
  void EvictToBudget(std::string_view keep);
  void RemoveEntryBytes(const Entry& entry);
  void Flight(obs::EventType type, uint64_t a, uint64_t b);

  ResultCacheOptions options_;
  FrequencySketch sketch_;
  std::map<std::string, Entry, std::less<>> entries_;
  uint64_t clock_ = 0;
  size_t bytes_used_ = 0;
  metrics::Counter hits_;
  metrics::Counter misses_;
  metrics::Counter insertions_;
  metrics::Counter evictions_;
  metrics::Counter invalidations_;
  metrics::Counter admission_rejected_;
  metrics::Gauge* bytes_g_ = metrics::Gauge::Noop();
  metrics::Gauge* entries_g_ = metrics::Gauge::Noop();
};

}  // namespace bestpeer::cache

#endif  // BESTPEER_CACHE_RESULT_CACHE_H_
