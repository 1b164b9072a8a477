#ifndef BESTPEER_BENCH_BENCH_COMMON_H_
#define BESTPEER_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "obs/critical_path.h"
#include "obs/timeseries.h"
#include "util/json_writer.h"
#include "workload/experiment.h"
#include "workload/topology.h"
#include "workload/world.h"

namespace bestpeer::bench {

/// Paper-scale experiment defaults (§4.2): 1000 objects of 1 KB per node,
/// the same query issued 4 times, results averaged over >= 3 seeds.
/// Set BP_BENCH_FAST=1 to run a scaled-down sweep (same shapes, smaller
/// stores, single seed) for quick iteration.
struct BenchScale {
  size_t objects_per_node = 1000;
  size_t files_per_node = 1000;
  std::vector<uint64_t> seeds = {1, 2, 3};
  size_t queries = 4;
};

inline bool FastMode() {
  const char* env = std::getenv("BP_BENCH_FAST");
  return env != nullptr && env[0] == '1';
}

inline BenchScale Scale() {
  BenchScale s;
  if (FastMode()) {
    s.objects_per_node = 200;
    s.files_per_node = 200;
    s.seeds = {1};
  }
  return s;
}

inline workload::ExperimentOptions PaperOptions(workload::Topology topology,
                                                workload::Scheme scheme) {
  const BenchScale scale = Scale();
  workload::ExperimentOptions o;
  o.topology = std::move(topology);
  o.scheme = scheme;
  o.objects_per_node = scale.objects_per_node;
  o.files_per_node = scale.files_per_node;
  o.object_size = 1024;
  o.matches_per_node = 10;
  o.queries = scale.queries;
  o.max_direct_peers = 8;
  // The paper's controlled environment searches every node; a TTL above
  // any overlay diameter used here guarantees full coverage.
  o.ttl = 64;
  return o;
}

/// Options for the *search phase* experiments (Figs. 5-7): the StorM
/// agent returns its array of matching results (small descriptors), and
/// CS servers return the equivalent result lists; object download is a
/// separate out-of-network step in BestPeer and is not part of the
/// measured search. Both schemes therefore ship descriptors here.
inline workload::ExperimentOptions SearchPhaseOptions(
    workload::Topology topology, workload::Scheme scheme) {
  workload::ExperimentOptions o =
      PaperOptions(std::move(topology), scheme);
  o.answer_mode = core::AnswerMode::kIndicate;
  o.auto_fetch = false;
  return o;
}

/// Runs with seed averaging and returns the merged result; dies loudly on
/// error (benches are not expected to fail).
inline workload::ExperimentResult MustRun(
    const workload::ExperimentOptions& options) {
  auto result = workload::RunAveraged(options, Scale().seeds);
  if (!result.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

/// Collects one bench binary's result table plus the merged instrument
/// snapshot of every experiment it ran, and writes them as
/// BENCH_<figure>.json (into $BP_BENCH_OUT_DIR when set, else the
/// working directory). The JSON carries the headline observability
/// numbers — wire bytes, agent hops, buffer-pool hit rate, serialize /
/// reconstruct cost — alongside the full metric dump, plus optional
/// `timeseries` and `critical_path` sections (AttachObservability).
///
/// End main() with `return report.Close();` so a failed report write
/// fails the bench (CI must not silently lose a report).
class BenchReport {
 public:
  explicit BenchReport(std::string figure) : figure_(std::move(figure)) {}
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;
  ~BenchReport() { Write(); }

  void SetColumns(std::vector<std::string> columns) {
    columns_ = std::move(columns);
  }

  void AddRow(std::string label, const std::vector<double>& values) {
    rows_.emplace_back(std::move(label), values);
  }

  /// Folds one run's wire bytes and metric snapshot into the report.
  void Absorb(const workload::RunArtifacts& run) {
    wire_bytes_ += run.wire_bytes;
    metrics_.Merge(run.metrics);
  }

  /// Folds a raw registry snapshot in (for benches that drive the
  /// network directly instead of through a workload driver).
  void Absorb(const metrics::Snapshot& snapshot) {
    metrics_.Merge(snapshot);
  }

  /// MustRun + Absorb in one step.
  workload::ExperimentResult Run(const workload::ExperimentOptions& options) {
    workload::ExperimentResult result = MustRun(options);
    Absorb(result);
    return result;
  }

  /// Attaches the run's `timeseries` and (when tracing was on) a
  /// `critical_path` section computed from its spans. Later attachments
  /// replace earlier ones: benches typically attach their headline
  /// configuration's run.
  void AttachObservability(const workload::RunArtifacts& run) {
    if (!run.timeseries.empty()) {
      timeseries_json_ = run.timeseries.ToJson(2);
    }
    if (run.trace != nullptr) {
      obs::CriticalPathReport cp =
          obs::AnalyzeCriticalPaths(*run.trace, run.flight.get());
      if (!cp.empty()) critical_path_json_ = cp.ToJson(2);
    }
  }

  void Write() {
    if (written_) return;
    written_ = true;
    std::string path = "BENCH_" + figure_ + ".json";
    if (const char* dir = std::getenv("BP_BENCH_OUT_DIR")) {
      path = std::string(dir) + "/" + path;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      write_failed_ = true;
      return;
    }
    std::fprintf(f, "{\n  \"figure\": %s,\n",
                 JsonQuoted(figure_).c_str());
    std::fprintf(f, "  \"columns\": [");
    for (size_t i = 0; i < columns_.size(); ++i) {
      std::fprintf(f, "%s%s", i == 0 ? "" : ", ",
                   JsonQuoted(columns_[i]).c_str());
    }
    std::fprintf(f, "],\n  \"rows\": [\n");
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "    {\"label\": %s, \"values\": [",
                   JsonQuoted(rows_[r].first).c_str());
      const auto& values = rows_[r].second;
      for (size_t i = 0; i < values.size(); ++i) {
        std::fprintf(f, "%s%s", i == 0 ? "" : ", ",
                     JsonNumber(values[i]).c_str());
      }
      std::fprintf(f, "]}%s\n", r + 1 < rows_.size() ? "," : "");
    }
    const double hits = metrics_.Value("storm.pool_hits");
    const double misses = metrics_.Value("storm.pool_misses");
    const double lookups = hits + misses;
    const uint64_t hop_samples = metrics_.CountOf("agent.hops_at_execute");
    std::fprintf(f, "  ],\n  \"summary\": {\n");
    std::fprintf(f, "    \"wire_bytes\": %llu,\n",
                 static_cast<unsigned long long>(wire_bytes_));
    std::fprintf(f, "    \"net_messages\": %s,\n",
                 JsonNumber(metrics_.Value("net.messages_sent")).c_str());
    std::fprintf(f, "    \"agent_migrations\": %s,\n",
                 JsonNumber(metrics_.Value("agent.migrations")).c_str());
    std::fprintf(
        f, "    \"agent_hops_mean\": %s,\n",
        JsonNumber(hop_samples == 0
                            ? 0.0
                            : metrics_.Value("agent.hops_at_execute") /
                                  static_cast<double>(hop_samples))
            .c_str());
    std::fprintf(
        f, "    \"agent_serialize_bytes\": %s,\n",
        JsonNumber(metrics_.Value("agent.serialize_bytes")).c_str());
    std::fprintf(
        f, "    \"agent_reconstruct_us\": %s,\n",
        JsonNumber(metrics_.Value("agent.reconstruct_us")).c_str());
    std::fprintf(
        f, "    \"buffer_pool_hit_rate\": %s\n",
        JsonNumber(lookups == 0 ? 0.0 : hits / lookups).c_str());
    std::fprintf(f, "  },\n");
    if (!timeseries_json_.empty()) {
      std::fprintf(f, "  \"timeseries\": %s,\n", timeseries_json_.c_str());
    }
    if (!critical_path_json_.empty()) {
      std::fprintf(f, "  \"critical_path\": %s,\n",
                   critical_path_json_.c_str());
    }
    std::fprintf(f, "  \"metrics\": %s\n}\n",
                 CappedMetrics().ToJson(2).c_str());
    if (std::fclose(f) != 0) write_failed_ = true;
    if (!write_failed_) std::printf("\nwrote %s\n", path.c_str());
  }

  /// True once Write() failed to produce the report file.
  bool write_failed() const { return write_failed_; }

  /// Writes the report and returns the process exit code: nonzero when
  /// the report could not be written, so CI can't silently lose it.
  int Close() {
    Write();
    return write_failed_ ? 1 : 0;
  }

 private:
  /// Per-node labeled series (net.node_bytes_sent{node=N}, ...) grow
  /// linearly with the swept topology sizes and swamp the metric dump.
  /// Above a threshold keep the top-k nodes by value plus one aggregate
  /// entry. BP_BENCH_NODE_METRICS=all keeps everything; a number sets
  /// the threshold.
  metrics::Snapshot CappedMetrics() const {
    size_t threshold = 32;
    if (const char* env = std::getenv("BP_BENCH_NODE_METRICS")) {
      if (std::string(env) == "all" || std::string(env) == "full") {
        return metrics_;
      }
      const long v = std::atol(env);
      if (v > 0) threshold = static_cast<size_t>(v);
    }
    constexpr size_t kTopK = 8;

    // Count the per-node entries of each metric name.
    std::vector<std::pair<std::string, size_t>> per_node_counts;
    for (const auto& e : metrics_.entries) {
      bool node_labeled = false;
      for (const auto& [k, v] : e.labels) node_labeled |= k == "node";
      if (!node_labeled) continue;
      bool counted = false;
      for (auto& [name, n] : per_node_counts) {
        if (name == e.name) {
          ++n;
          counted = true;
        }
      }
      if (!counted) per_node_counts.emplace_back(e.name, 1);
    }

    metrics::Snapshot capped;
    for (const auto& [name, n] : per_node_counts) {
      if (n <= threshold) continue;
      // Collect, rank by value, keep kTopK, aggregate the rest.
      std::vector<const metrics::SnapshotEntry*> group;
      for (const auto& e : metrics_.entries) {
        if (e.name != name) continue;
        group.push_back(&e);
      }
      std::stable_sort(group.begin(), group.end(),
                       [](const auto* a, const auto* b) {
                         return a->value > b->value;
                       });
      metrics::SnapshotEntry agg;
      agg.name = name;
      agg.labels = {{"node", "aggregate"}};
      agg.kind = group.front()->kind;
      for (size_t i = 0; i < group.size(); ++i) {
        if (i < kTopK) {
          capped.entries.push_back(*group[i]);
        }
        agg.value += group[i]->value;
        agg.count += group[i]->count;
      }
      capped.entries.push_back(std::move(agg));
    }
    if (capped.entries.empty()) return metrics_;  // Nothing to cap.

    // Keep every metric that wasn't capped, in original order.
    metrics::Snapshot out;
    for (const auto& e : metrics_.entries) {
      bool is_capped = false;
      for (const auto& [name, n] : per_node_counts) {
        if (name == e.name && n > threshold) is_capped = true;
      }
      if (!is_capped) out.entries.push_back(e);
    }
    for (auto& e : capped.entries) out.entries.push_back(std::move(e));
    return out;
  }

  std::string figure_;
  std::vector<std::string> columns_;
  std::vector<std::pair<std::string, std::vector<double>>> rows_;
  metrics::Snapshot metrics_;
  std::string timeseries_json_;
  std::string critical_path_json_;
  uint64_t wire_bytes_ = 0;
  bool written_ = false;
  bool write_failed_ = false;
};

inline void PrintTitle(const std::string& title) {
  std::printf("\n## %s\n\n", title.c_str());
}

inline void PrintRowHeader(const std::vector<std::string>& columns) {
  std::printf("| %-14s", columns.empty() ? "" : columns[0].c_str());
  for (size_t i = 1; i < columns.size(); ++i) {
    std::printf(" | %12s", columns[i].c_str());
  }
  std::printf(" |\n|%s", std::string(16, '-').c_str());
  for (size_t i = 1; i < columns.size(); ++i) {
    std::printf("|%s", std::string(14, '-').c_str());
  }
  std::printf("|\n");
}

inline void PrintRow(const std::string& label,
                     const std::vector<double>& values,
                     const char* fmt = "%12.2f") {
  std::printf("| %-14s", label.c_str());
  for (double v : values) {
    std::printf(" | ");
    std::printf(fmt, v);
  }
  std::printf(" |\n");
}

}  // namespace bestpeer::bench

#endif  // BESTPEER_BENCH_BENCH_COMMON_H_
