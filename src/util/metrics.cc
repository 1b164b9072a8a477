#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>

#include "util/json_writer.h"
#include "util/stats.h"

namespace bestpeer::metrics {

Counter* Counter::Noop() {
  static Counter sink;
  return &sink;
}

Gauge* Gauge::Noop() {
  static Gauge sink;
  return &sink;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  size_t idx =
      std::upper_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin();
  ++buckets_[idx];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

Histogram* Histogram::Noop() {
  static Histogram sink;
  return &sink;
}

std::vector<double> Histogram::DefaultBounds() {
  std::vector<double> bounds;
  double b = 1;
  for (int i = 0; i < 13; ++i) {
    bounds.push_back(b);
    b *= 4;
  }
  return bounds;
}

namespace {

LabelSet Normalized(LabelSet labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

std::string EntryKey(const SnapshotEntry& e) {
  std::string key = e.name;
  if (!e.labels.empty()) {
    key += '{';
    for (size_t i = 0; i < e.labels.size(); ++i) {
      if (i > 0) key += ',';
      key += e.labels[i].first;
      key += '=';
      key += e.labels[i].second;
    }
    key += '}';
  }
  return key;
}

}  // namespace

Counter* Registry::GetCounter(std::string_view name, LabelSet labels) {
  Key key{std::string(name), Normalized(std::move(labels))};
  auto it = instruments_.find(key);
  if (it == instruments_.end()) {
    Instrument inst;
    inst.kind = InstrumentKind::kCounter;
    inst.counter = std::make_unique<Counter>();
    it = instruments_.emplace(std::move(key), std::move(inst)).first;
  }
  if (it->second.kind != InstrumentKind::kCounter) return Counter::Noop();
  return it->second.counter.get();
}

Gauge* Registry::GetGauge(std::string_view name, LabelSet labels) {
  Key key{std::string(name), Normalized(std::move(labels))};
  auto it = instruments_.find(key);
  if (it == instruments_.end()) {
    Instrument inst;
    inst.kind = InstrumentKind::kGauge;
    inst.gauge = std::make_unique<Gauge>();
    it = instruments_.emplace(std::move(key), std::move(inst)).first;
  }
  if (it->second.kind != InstrumentKind::kGauge) return Gauge::Noop();
  return it->second.gauge.get();
}

Histogram* Registry::GetHistogram(std::string_view name, LabelSet labels,
                                  std::vector<double> bounds) {
  Key key{std::string(name), Normalized(std::move(labels))};
  auto it = instruments_.find(key);
  if (it == instruments_.end()) {
    Instrument inst;
    inst.kind = InstrumentKind::kHistogram;
    inst.histogram = bounds.empty()
                         ? std::make_unique<Histogram>()
                         : std::make_unique<Histogram>(std::move(bounds));
    it = instruments_.emplace(std::move(key), std::move(inst)).first;
  }
  if (it->second.kind != InstrumentKind::kHistogram) return Histogram::Noop();
  return it->second.histogram.get();
}

Snapshot Registry::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.entries.reserve(instruments_.size());
  for (const auto& [key, inst] : instruments_) {
    SnapshotEntry entry;
    entry.name = key.first;
    entry.labels = key.second;
    entry.kind = inst.kind;
    switch (inst.kind) {
      case InstrumentKind::kCounter:
        entry.value = static_cast<double>(inst.counter->value());
        break;
      case InstrumentKind::kGauge:
        entry.value = inst.gauge->value();
        break;
      case InstrumentKind::kHistogram:
        entry.value = inst.histogram->sum();
        entry.count = inst.histogram->count();
        entry.min = inst.histogram->min();
        entry.max = inst.histogram->max();
        entry.bounds = inst.histogram->bounds();
        entry.buckets = inst.histogram->buckets();
        break;
    }
    snapshot.entries.push_back(std::move(entry));
  }
  return snapshot;
}

void Snapshot::Merge(const Snapshot& other) {
  for (const auto& theirs : other.entries) {
    SnapshotEntry* mine = nullptr;
    for (auto& e : entries) {
      if (e.name == theirs.name && e.labels == theirs.labels) {
        mine = &e;
        break;
      }
    }
    if (mine == nullptr) {
      entries.push_back(theirs);
      continue;
    }
    switch (theirs.kind) {
      case InstrumentKind::kCounter:
        mine->value += theirs.value;
        break;
      case InstrumentKind::kGauge:
        mine->value = theirs.value;
        break;
      case InstrumentKind::kHistogram: {
        const bool mine_empty = mine->count == 0;
        mine->value += theirs.value;
        mine->count += theirs.count;
        if (theirs.count > 0) {
          mine->min = mine_empty ? theirs.min : std::min(mine->min, theirs.min);
          mine->max = mine_empty ? theirs.max : std::max(mine->max, theirs.max);
        }
        if (mine->bounds == theirs.bounds &&
            mine->buckets.size() == theirs.buckets.size()) {
          for (size_t i = 0; i < mine->buckets.size(); ++i) {
            mine->buckets[i] += theirs.buckets[i];
          }
        } else {
          // Incompatible bucket layouts: keep count/sum/min/max (still
          // exact) but drop the bucket detail rather than fabricate one.
          mine->bounds.clear();
          mine->buckets.clear();
        }
        break;
      }
    }
  }
}

double Snapshot::Value(std::string_view name) const {
  double sum = 0;
  for (const auto& e : entries) {
    if (e.name == name) sum += e.value;
  }
  return sum;
}

uint64_t Snapshot::CountOf(std::string_view name) const {
  uint64_t sum = 0;
  for (const auto& e : entries) {
    if (e.name == name) sum += e.count;
  }
  return sum;
}

double SnapshotEntry::Percentile(double p) const {
  if (kind != InstrumentKind::kHistogram || buckets.empty()) return 0;
  return HistogramPercentile(bounds, buckets, p);
}

namespace {

// --- Prometheus text exposition (version 0.0.4) -------------------------

/// Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; label names drop the
/// colon. Out-of-charset characters (the repo uses dotted names like
/// "net.tx_bytes") become underscores.
std::string SanitizeName(std::string_view name, bool allow_colon) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    const bool digit = c >= '0' && c <= '9';
    if (alpha || (c == ':' && allow_colon) || (digit && i > 0)) {
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  if (out.empty()) out = "_";
  return out;
}

/// Label values escape backslash, double-quote and newline.
void AppendLabelEscaped(std::string* out, const std::string& v) {
  for (char c : v) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '"':
        *out += "\\\"";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        out->push_back(c);
    }
  }
}

/// Prometheus sample values: plain decimal, with NaN/+Inf/-Inf spelled
/// out (unlike JSON, the exposition format has literals for them).
void AppendPromNumber(std::string* out, double v) {
  if (std::isnan(v)) {
    *out += "NaN";
    return;
  }
  if (std::isinf(v)) {
    *out += v > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buf[40];
  if (std::nearbyint(v) == v && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  *out += buf;
}

/// `{label="value",...}` with `extra` appended last (used for `le`).
void AppendLabels(std::string* out, const LabelSet& labels,
                  const std::string& extra_key = std::string(),
                  const std::string& extra_value = std::string()) {
  if (labels.empty() && extra_key.empty()) return;
  *out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) *out += ',';
    first = false;
    *out += SanitizeName(k, /*allow_colon=*/false);
    *out += "=\"";
    AppendLabelEscaped(out, v);
    *out += '"';
  }
  if (!extra_key.empty()) {
    if (!first) *out += ',';
    *out += extra_key;
    *out += "=\"";
    AppendLabelEscaped(out, extra_value);
    *out += '"';
  }
  *out += '}';
}

const char* KindName(InstrumentKind kind) {
  switch (kind) {
    case InstrumentKind::kCounter:
      return "counter";
    case InstrumentKind::kGauge:
      return "gauge";
    case InstrumentKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string Snapshot::ToPrometheus() const {
  std::string out;
  out.reserve(entries.size() * 48);
  // Entries arrive grouped by name (registry snapshots are map-ordered;
  // merged snapshots append in first-seen order). Emit one TYPE line per
  // family at its first entry; repeated families reuse the earlier TYPE.
  std::vector<std::string> typed;
  for (const SnapshotEntry& e : entries) {
    const std::string name = SanitizeName(e.name, /*allow_colon=*/true);
    if (std::find(typed.begin(), typed.end(), name) == typed.end()) {
      typed.push_back(name);
      out += "# TYPE ";
      out += name;
      out += ' ';
      out += KindName(e.kind);
      out += '\n';
    }
    if (e.kind == InstrumentKind::kHistogram) {
      // Cumulative buckets; the +Inf bucket always equals _count, so a
      // bucketless entry (merged across layouts) still exposes validly.
      uint64_t cumulative = 0;
      for (size_t i = 0; i < e.bounds.size() && i < e.buckets.size(); ++i) {
        cumulative += e.buckets[i];
        out += name;
        out += "_bucket";
        std::string le;
        AppendPromNumber(&le, e.bounds[i]);
        AppendLabels(&out, e.labels, "le", le);
        out += ' ';
        AppendPromNumber(&out, static_cast<double>(cumulative));
        out += '\n';
      }
      out += name;
      out += "_bucket";
      AppendLabels(&out, e.labels, "le", "+Inf");
      out += ' ';
      AppendPromNumber(&out, static_cast<double>(e.count));
      out += '\n';
      out += name;
      out += "_sum";
      AppendLabels(&out, e.labels);
      out += ' ';
      AppendPromNumber(&out, e.value);
      out += '\n';
      out += name;
      out += "_count";
      AppendLabels(&out, e.labels);
      out += ' ';
      AppendPromNumber(&out, static_cast<double>(e.count));
      out += '\n';
    } else {
      out += name;
      AppendLabels(&out, e.labels);
      out += ' ';
      AppendPromNumber(&out, e.value);
      out += '\n';
    }
  }
  return out;
}

namespace {

// --- exposition lint ----------------------------------------------------

bool ValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
        c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

Status LintError(size_t line_no, const std::string& what) {
  return Status::InvalidArgument("exposition line " +
                                 std::to_string(line_no) + ": " + what);
}

struct LintSample {
  std::string name;    ///< Full sample name (with _bucket/_sum suffix).
  std::string labels;  ///< Raw label block without the `le` pair.
  double le = 0;       ///< Parsed le bound (bucket samples only).
  bool le_inf = false;
  double value = 0;
};

/// Parses `name{labels} value`; returns false + error message on bad
/// syntax. Splits out the `le` label for bucket monotonicity checks.
bool ParseSample(const std::string& line, LintSample* out,
                 std::string* error) {
  size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  out->name = line.substr(0, i);
  if (!ValidMetricName(out->name)) {
    *error = "invalid metric name '" + out->name + "'";
    return false;
  }
  out->labels.clear();
  out->le_inf = false;
  out->le = 0;
  bool saw_le = false;
  if (i < line.size() && line[i] == '{') {
    ++i;
    bool first = true;
    while (i < line.size() && line[i] != '}') {
      if (!first) {
        if (line[i] != ',') {
          *error = "expected ',' between labels";
          return false;
        }
        ++i;
      }
      size_t eq = line.find('=', i);
      if (eq == std::string::npos) {
        *error = "label without '='";
        return false;
      }
      std::string key = line.substr(i, eq - i);
      if (!ValidMetricName(key) || key.find(':') != std::string::npos) {
        *error = "invalid label name '" + key + "'";
        return false;
      }
      i = eq + 1;
      if (i >= line.size() || line[i] != '"') {
        *error = "label value not quoted";
        return false;
      }
      ++i;
      std::string value;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\') {
          if (i + 1 >= line.size()) {
            *error = "dangling escape in label value";
            return false;
          }
          const char esc = line[i + 1];
          if (esc != '\\' && esc != '"' && esc != 'n') {
            *error = "invalid escape in label value";
            return false;
          }
          value.push_back(esc == 'n' ? '\n' : esc);
          i += 2;
        } else {
          value.push_back(line[i]);
          ++i;
        }
      }
      if (i >= line.size()) {
        *error = "unterminated label value";
        return false;
      }
      ++i;  // Closing quote.
      if (key == "le") {
        saw_le = true;
        if (value == "+Inf") {
          out->le_inf = true;
        } else {
          char* end = nullptr;
          out->le = std::strtod(value.c_str(), &end);
          if (end == value.c_str() || *end != '\0') {
            *error = "unparseable le bound '" + value + "'";
            return false;
          }
        }
      } else {
        if (!out->labels.empty()) out->labels += ',';
        out->labels += key;
        out->labels += '=';
        out->labels += value;
      }
      first = false;
    }
    if (i >= line.size()) {
      *error = "unterminated label block";
      return false;
    }
    ++i;  // '}'.
  }
  if (i >= line.size() || line[i] != ' ') {
    *error = "missing space before sample value";
    return false;
  }
  ++i;
  const std::string value_str = line.substr(i);
  if (value_str == "NaN") {
    out->value = std::nan("");
  } else if (value_str == "+Inf") {
    out->value = std::numeric_limits<double>::infinity();
  } else if (value_str == "-Inf") {
    out->value = -std::numeric_limits<double>::infinity();
  } else {
    char* end = nullptr;
    out->value = std::strtod(value_str.c_str(), &end);
    if (end == value_str.c_str() || *end != '\0') {
      *error = "unparseable sample value '" + value_str + "'";
      return false;
    }
  }
  (void)saw_le;  // Bucket-without-le is caught by the family pass below.
  return true;
}

}  // namespace

Status LintPrometheusText(std::string_view text) {
  // family name -> declared kind.
  std::map<std::string, std::string> families;
  // histogram family + labels -> last cumulative bucket count and whether
  // +Inf was seen; +Inf count compared against _count at the end.
  struct BucketState {
    double last = -1;
    double last_le = -std::numeric_limits<double>::infinity();
    bool inf_seen = false;
    double inf_count = 0;
    bool count_seen = false;
    double count_value = 0;
  };
  std::map<std::string, BucketState> hist_state;

  size_t line_no = 0;
  size_t pos = 0;
  bool any_sample = false;
  while (pos <= text.size()) {
    const size_t nl = text.find('\n', pos);
    const std::string line(nl == std::string_view::npos
                               ? text.substr(pos)
                               : text.substr(pos, nl - pos));
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Only TYPE and HELP comments are meaningful; others are ignored.
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string rest = line.substr(7);
        const size_t sp = rest.find(' ');
        if (sp == std::string::npos) {
          return LintError(line_no, "malformed TYPE line");
        }
        const std::string fam = rest.substr(0, sp);
        const std::string kind = rest.substr(sp + 1);
        if (!ValidMetricName(fam)) {
          return LintError(line_no, "invalid family name in TYPE line");
        }
        if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
            kind != "summary" && kind != "untyped") {
          return LintError(line_no, "unknown TYPE kind '" + kind + "'");
        }
        if (families.count(fam) != 0) {
          return LintError(line_no, "duplicate TYPE for family " + fam);
        }
        families[fam] = kind;
      }
      continue;
    }
    LintSample sample;
    std::string error;
    if (!ParseSample(line, &sample, &error)) {
      return LintError(line_no, error);
    }
    any_sample = true;
    // Resolve the family: histogram suffixes map back to the base name.
    std::string family = sample.name;
    std::string suffix;
    for (const char* s : {"_bucket", "_sum", "_count"}) {
      const size_t n = std::strlen(s);
      if (family.size() > n &&
          family.compare(family.size() - n, n, s) == 0 &&
          families.count(family.substr(0, family.size() - n)) != 0 &&
          families[family.substr(0, family.size() - n)] == "histogram") {
        suffix = s;
        family = family.substr(0, family.size() - n);
        break;
      }
    }
    auto fam_it = families.find(family);
    if (fam_it == families.end()) {
      return LintError(line_no, "sample '" + sample.name +
                                    "' has no preceding TYPE line");
    }
    if (fam_it->second == "histogram") {
      if (suffix.empty()) {
        return LintError(line_no, "histogram family " + family +
                                      " exposed without suffix");
      }
      BucketState& st = hist_state[family + "\x01" + sample.labels];
      if (suffix == "_bucket") {
        if (sample.le_inf) {
          st.inf_seen = true;
          st.inf_count = sample.value;
          if (sample.value < st.last) {
            return LintError(line_no,
                             "+Inf bucket below preceding bucket count");
          }
        } else {
          if (sample.le <= st.last_le) {
            return LintError(line_no, "bucket le bounds not increasing");
          }
          if (st.last >= 0 && sample.value < st.last) {
            return LintError(line_no,
                             "bucket counts not monotone for " + family);
          }
          st.last_le = sample.le;
          st.last = sample.value;
        }
      } else if (suffix == "_count") {
        st.count_seen = true;
        st.count_value = sample.value;
      }
    }
  }
  if (!any_sample) {
    return Status::InvalidArgument("exposition has no samples");
  }
  for (const auto& [key, st] : hist_state) {
    const std::string family = key.substr(0, key.find('\x01'));
    if (!st.inf_seen) {
      return Status::InvalidArgument("histogram " + family +
                                     " missing +Inf bucket");
    }
    if (st.count_seen && st.inf_count != st.count_value) {
      return Status::InvalidArgument("histogram " + family +
                                     " +Inf bucket != _count");
    }
  }
  return Status::OK();
}

std::string Snapshot::ToJson(int indent) const {
  const std::string pad(static_cast<size_t>(indent), ' ');
  const std::string inner(static_cast<size_t>(indent) + 2, ' ');
  std::string out = "{";
  for (size_t i = 0; i < entries.size(); ++i) {
    const SnapshotEntry& e = entries[i];
    out += i == 0 ? "\n" : ",\n";
    out += inner;
    out += '"';
    AppendJsonEscaped(&out, EntryKey(e));
    out += "\": ";
    if (e.kind == InstrumentKind::kHistogram) {
      out += "{\"count\": ";
      AppendJsonNumber(&out, static_cast<double>(e.count));
      out += ", \"sum\": ";
      AppendJsonNumber(&out, e.value);
      out += ", \"min\": ";
      AppendJsonNumber(&out, e.min);
      out += ", \"max\": ";
      AppendJsonNumber(&out, e.max);
      out += ", \"mean\": ";
      AppendJsonNumber(&out, e.count == 0
                                 ? 0
                                 : e.value / static_cast<double>(e.count));
      out += "}";
    } else {
      AppendJsonNumber(&out, e.value);
    }
  }
  if (!entries.empty()) {
    out += '\n';
    out += pad;
  }
  out += '}';
  return out;
}

}  // namespace bestpeer::metrics
