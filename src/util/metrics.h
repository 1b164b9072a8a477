#ifndef BESTPEER_UTIL_METRICS_H_
#define BESTPEER_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace bestpeer::metrics {

/// Sorted (key, value) pairs qualifying one instrument, e.g.
/// {{"node", "3"}, {"scheme", "BPR"}}. Registries sort labels on lookup,
/// so callers may pass them in any order.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing count. Incrementing is an add (one more on
/// its total, if any) — cheap enough for the network send path.
///
/// A counter may have a *total*: another counter that every Add and
/// Increment also bumps. A component owns one Counter per event — its
/// value() is the per-object count — and, when given a registry, points
/// the counter's total at the registry's instrument, so the fleet-wide
/// figure is fed by the same increment.
///
/// Threading: each counter has one writer at a time — the reactor thread,
/// or the thread holding the node's store whose pool owns it (a scan on a
/// TCP worker, DESIGN.md §8) — while any thread may read it. The value is
/// a relaxed atomic updated by a load and a store, not a locked add: a
/// reader (a registry snapshot for /metrics) never tears, and the add
/// compiles to the same plain instructions as a bare integer.
class Counter {
 public:
  Counter() = default;
  /// Copies the count and the total, as a plain integer member would (a
  /// component held in a growing vector moves its counters).
  Counter(const Counter& other) : value_(other.value()), total_(other.total_) {}
  Counter& operator=(const Counter& other) {
    value_.store(other.value(), std::memory_order_relaxed);
    total_ = other.total_;
    return *this;
  }

  void Add(uint64_t delta) {
    value_.store(value_.load(std::memory_order_relaxed) + delta,
                 std::memory_order_relaxed);
    if (total_ != nullptr) total_->Add(delta);
  }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  /// Every later increment also lands on `total` (not owned; nullptr
  /// detaches). Increments made before the call are not forwarded.
  void set_total(Counter* total) { total_ = total; }

  /// A shared sink for registry handles of components constructed without
  /// a registry: writes land in a dummy nobody reads, so hot paths never
  /// branch on nullptr.
  static Counter* Noop();

 private:
  std::atomic<uint64_t> value_{0};
  Counter* total_ = nullptr;
};

/// A value that can go up and down (queue depths, cache occupancy).
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

  static Gauge* Noop();

 private:
  double value_ = 0;
};

/// Bucketed distribution with count/sum/min/max. Buckets are cumulative
/// upper bounds; samples above the last bound land in an implicit
/// overflow bucket.
class Histogram {
 public:
  /// Default: exponential bounds 1, 4, 16, ... 4^12 — wide enough for
  /// microsecond latencies from one NIC transfer to a whole experiment.
  Histogram() : Histogram(DefaultBounds()) {}
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// 0 when empty.
  double min() const { return count_ == 0 ? 0 : min_; }
  double max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<uint64_t>& buckets() const { return buckets_; }

  static Histogram* Noop();
  static std::vector<double> DefaultBounds();

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

enum class InstrumentKind { kCounter, kGauge, kHistogram };

/// One instrument's state at snapshot time.
struct SnapshotEntry {
  std::string name;
  LabelSet labels;
  InstrumentKind kind = InstrumentKind::kCounter;
  /// Counter/gauge value; for histograms, the sum of samples.
  double value = 0;
  /// Histogram sample count (0 for counters/gauges).
  uint64_t count = 0;
  double min = 0;
  double max = 0;
  /// Histogram bucket upper bounds (empty for counters/gauges).
  std::vector<double> bounds;
  /// Per-bucket counts; bounds.size() + 1 entries, the last being the
  /// overflow bucket. Empty when the entry carries no bucket detail
  /// (e.g. merged from a source without buckets).
  std::vector<uint64_t> buckets;

  /// Histogram percentile estimate (bucket interpolation through the
  /// shared HistogramPercentile routine); 0 for non-histograms or
  /// entries without bucket detail.
  double Percentile(double p) const;
};

/// A point-in-time copy of a registry, detached from the live handles.
/// Benches merge snapshots across seeds and serialize them to JSON.
struct Snapshot {
  std::vector<SnapshotEntry> entries;

  /// Sums counters and histograms entry-wise (matched by name + labels);
  /// gauges take the other snapshot's value. Unmatched entries append.
  void Merge(const Snapshot& other);

  /// Sum of `value` across every label combination of `name`
  /// (0 when absent).
  double Value(std::string_view name) const;

  /// Sum of histogram counts across label combinations of `name`.
  uint64_t CountOf(std::string_view name) const;

  /// Flat JSON object: counters/gauges as numbers keyed
  /// "name" or "name{k=v,...}", histograms as
  /// {"count":..,"sum":..,"min":..,"max":..,"mean":..}.
  std::string ToJson(int indent = 0) const;

  /// Prometheus text exposition (version 0.0.4): one `# TYPE` line per
  /// metric family, `name{label="value"} v` samples with full label
  /// escaping, histograms as cumulative `_bucket{le="..."}` series plus
  /// `_sum`/`_count`. Metric/label names are sanitized to the Prometheus
  /// charset (dots become underscores).
  std::string ToPrometheus() const;
};

/// Validates Prometheus text exposition output: every sample belongs to a
/// preceding `# TYPE` family, names match the Prometheus charset, label
/// values are correctly escaped, histogram bucket counts are monotone
/// with a `+Inf` bucket equal to `_count`. Returns InvalidArgument with a
/// line number on the first violation — the CI format-lint gate.
Status LintPrometheusText(std::string_view text);

/// Owns every instrument of one experiment. Lookup (GetCounter etc.) is a
/// map walk and belongs in constructors; the returned handles are
/// pointer-stable for the registry's lifetime and are what hot paths use.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the instrument registered under (name, labels), creating it
  /// on first use. Asking for the same name with a different kind returns
  /// the shared Noop instrument (and the mismatch is dropped).
  Counter* GetCounter(std::string_view name, LabelSet labels = {});
  Gauge* GetGauge(std::string_view name, LabelSet labels = {});
  /// `bounds` applies only on first creation; empty uses the default.
  Histogram* GetHistogram(std::string_view name, LabelSet labels = {},
                          std::vector<double> bounds = {});

  Snapshot TakeSnapshot() const;

  size_t instrument_count() const { return instruments_.size(); }

 private:
  struct Instrument {
    InstrumentKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  using Key = std::pair<std::string, LabelSet>;

  std::map<Key, Instrument> instruments_;
};

}  // namespace bestpeer::metrics

#endif  // BESTPEER_UTIL_METRICS_H_
