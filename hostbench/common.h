// Shared pieces of the host-time benchmark drivers: command line, host
// clock, percentile helpers, the in-memory span tracer, and the result
// line every driver prints last.
#ifndef HOSTBENCH_COMMON_H_
#define HOSTBENCH_COMMON_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace hostbench {

// ------------------------------------------------------------------ args

struct Args {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small sizes for the self-test smoke runs.
  bool tiny = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string spans_out;
};

/// Parses `--seed N --seconds S --trace 0|1 [--tiny] [--spans-out PATH]`.
/// Returns false (after printing usage) on anything else.
inline bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(a, "--tiny") == 0) {
      args->tiny = true;
    } else if (std::strcmp(a, "--seed") == 0 && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(a, "--seconds") == 0 && has_value) {
      args->seconds = std::atof(argv[++i]);
    } else if (std::strcmp(a, "--trace") == 0 && has_value) {
      args->trace = std::atoi(argv[++i]) != 0;
    } else if (std::strcmp(a, "--spans-out") == 0 && has_value) {
      args->spans_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s --seed N --seconds S --trace 0|1 [--tiny] "
                   "[--spans-out PATH]\n",
                   argv[0]);
      return false;
    }
  }
  return args->seconds >= 0;
}

// ------------------------------------------------------------------ clock

using SteadyClock = std::chrono::steady_clock;

/// Nanoseconds of host time since the process started (first call).
inline int64_t NowNs() {
  static const SteadyClock::time_point start = SteadyClock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now() - start)
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Whether an untraced run sets its world up once more before measuring:
/// at least 3 set-ups, then more while they have taken under 2 s in all
/// (at most 9), so short set-ups still yield a steady median.
inline bool WantAnotherSetup(const std::vector<double>& setup_s) {
  double spent = 0;
  for (double s : setup_s) spent += s;
  return setup_s.size() < 3 || (setup_s.size() < 9 && spent < 2.0);
}

/// Peak resident set size of this process in MiB (getrusage).
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// ------------------------------------------------------------------ stats

/// Percentile `p` (0..100) of unsorted `samples` through the repo's one
/// quantile routine, so p50/p90 here compare with every other output.
inline double Percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return bestpeer::PercentileOfSorted(samples, p);
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

/// One field of every record, e.g. Column(queries, &QueryRecord::host_ms).
template <typename Record>
std::vector<double> Column(const std::vector<Record>& records,
                           double Record::*field) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const Record& r : records) out.push_back(r.*field);
  return out;
}

/// The highest of p50, p90, p99 and p99.9 that has at least ten of `n`
/// distinct samples above it; 0 when even the median has fewer.
/// PercentileOfSorted interpolates from 0-based position p/100 * (n - 1),
/// so every sample past the integer part of that position lies above.
inline double HighestSupportedPercentile(size_t n) {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (n == 0) break;
    const auto below = static_cast<size_t>(p / 100.0 *
                                           static_cast<double>(n - 1));
    if (n - 1 - below >= 10) best = p;
  }
  return best;
}

// ------------------------------------------------------------------ spans

/// In-memory span recorder. A span has a name "<layer>.<call>", host start
/// and end, the span that caused it, and the query it belongs to (0 for
/// setup work). Spans nest through a stack on the recording thread; spans
/// whose interval is known only afterwards are added with Add().
class Tracer {
 public:
  struct Span {
    const char* name;
    uint32_t id;
    uint32_t parent;  // 0 = root.
    uint64_t query;
    int64_t start_ns;
    int64_t end_ns;
  };

  uint32_t Begin(const char* name, uint64_t query) {
    const uint32_t id = static_cast<uint32_t>(spans_.size()) + 1;
    const uint32_t parent = stack_.empty() ? 0 : stack_.back();
    if (query == 0 && parent != 0) query = spans_[parent - 1].query;
    spans_.push_back(Span{name, id, parent, query, NowNs(), 0});
    stack_.push_back(id);
    return id;
  }

  void End(uint32_t id) {
    spans_[id - 1].end_ns = NowNs();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// Tags every open span with `query` (its id is known only once the
  /// query is issued).
  void TagOpen(uint64_t query) {
    for (uint32_t id : stack_) spans_[id - 1].query = query;
  }

  /// Records a finished span under the current open span.
  void Add(const char* name, uint64_t query, int64_t start_ns,
           int64_t end_ns) {
    const uint32_t id = static_cast<uint32_t>(spans_.size()) + 1;
    const uint32_t parent = stack_.empty() ? 0 : stack_.back();
    spans_.push_back(Span{name, id, parent, query, start_ns, end_ns});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration (µs) of every span called `name`, and how many.
  std::pair<double, size_t> Total(const char* name) const {
    double us = 0;
    size_t count = 0;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) != 0) continue;
      us += NsToUs(s.end_ns - s.start_ns);
      ++count;
    }
    return {us, count};
  }

  double TotalUs(const char* name) const { return Total(name).first; }

  double MeanUs(const char* name) const {
    auto [us, count] = Total(name);
    return count == 0 ? 0 : us / static_cast<double>(count);
  }

  /// Self time per layer in ms: each span's duration minus the part its
  /// children cover, summed by the name's prefix before the first '.'.
  std::map<std::string, double> SelfMsByLayer() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const char* dot = std::strchr(s.name, '.');
      std::string layer =
          dot == nullptr ? std::string(s.name) : std::string(s.name, dot);
      out[layer] += NsToMs(s.end_ns - s.start_ns - child_ns[i]);
    }
    return out;
  }

  /// Writes the spans as a JSON array of
  /// [id, parent, query, name, start_ns, end_ns]. Returns false on error.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "[%u,%u,%llu,\"%s\",%lld,%lld]%s\n", s.id, s.parent,
                   static_cast<unsigned long long>(s.query), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
};

/// RAII span; a null tracer makes it a no-op (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t query = 0)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, query) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t id_;
};

// ------------------------------------------------------------------ report

/// Collects named metrics with units and prints them: one human-readable
/// line per metric, then the benchmark's result object as the last line.
class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.emplace_back(name, std::make_pair(value, std::string(unit)));
  }

  /// Prints and returns the process exit code (nonzero when incorrect).
  int Finish(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const auto& [name, vu] : metrics_) {
      std::printf("metric %-36s %16.6f %s\n", name.c_str(), vu.first,
                  vu.second.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].first.c_str(),
                  metrics_[i].second.first, metrics_[i].second.second.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// Adds the self-time split and writes the spans file when asked.
inline bool ReportTrace(const Tracer& tracer, const Args& args,
                        Report* report) {
  const auto split = tracer.SelfMsByLayer();
  for (const char* layer : {"bench", "workload", "core", "sim", "net", "liglo"}) {
    auto it = split.find(layer);
    report->Add(std::string("self_ms.") + layer,
                it == split.end() ? 0.0 : it->second, "ms");
  }
  if (args.spans_out.empty()) return true;
  if (!tracer.WriteJson(args.spans_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans_out.c_str());
    return false;
  }
  return true;
}

}  // namespace hostbench

#endif  // HOSTBENCH_COMMON_H_
