#include "obs/timeseries.h"

#include <utility>

#include "util/json_writer.h"

namespace bestpeer::obs {

std::string TimeSeries::ToJson(int indent) const {
  const std::string pad(static_cast<size_t>(indent), ' ');
  const std::string inner(static_cast<size_t>(indent) + 2, ' ');
  std::string out = "{\n";
  out += inner + "\"interval_us\": ";
  AppendJsonNumber(&out, static_cast<double>(interval));
  out += ",\n" + inner + "\"columns\": [\"ts_us\"";
  for (const std::string& c : columns) {
    out += ", \"";
    AppendJsonEscaped(&out, c);
    out += '"';
  }
  out += "],\n" + inner + "\"points\": [";
  for (size_t i = 0; i < timestamps.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += inner + "  [";
    AppendJsonNumber(&out, static_cast<double>(timestamps[i]));
    for (double v : points[i]) {
      out += ", ";
      AppendJsonNumber(&out, v);
    }
    out += ']';
  }
  if (!timestamps.empty()) out += "\n" + inner;
  out += "]\n" + pad + "}";
  return out;
}

TimeSeriesSampler::TimeSeriesSampler(const metrics::Registry* registry,
                                     SimTime interval)
    : registry_(registry), interval_(interval <= 0 ? 1 : interval) {
  series_.interval = interval_;
}

void TimeSeriesSampler::AddDelta(std::string column, std::string metric) {
  columns_.push_back({Column::Mode::kDelta, std::move(metric), nullptr, 0});
  series_.columns.push_back(std::move(column));
}

void TimeSeriesSampler::AddLevel(std::string column, std::string metric) {
  columns_.push_back({Column::Mode::kLevel, std::move(metric), nullptr, 0});
  series_.columns.push_back(std::move(column));
}

void TimeSeriesSampler::AddProbe(std::string column,
                                 std::function<double()> probe) {
  columns_.push_back({Column::Mode::kProbe, "", std::move(probe), 0});
  series_.columns.push_back(std::move(column));
}

void TimeSeriesSampler::AddDefaultColumns() {
  AddDelta("wire_bytes", "net.wire_bytes");
  AddDelta("messages", "net.messages_sent");
  AddDelta("net_queue_wait_us", "net.queue_wait_us");
  AddDelta("cpu_busy_us", "cpu.busy_us");
  AddDelta("fault_drops", "fault.drops");
  AddLevel("inflight_sessions", "core.inflight_sessions");
}

void TimeSeriesSampler::Sample(SimTime now) {
  // Dedupe: Arm() after every query round plus the periodic tick can both
  // land on the same instant; one row per timestamp is enough.
  if (!series_.timestamps.empty() && series_.timestamps.back() == now) {
    return;
  }
  const metrics::Snapshot snapshot = registry_->TakeSnapshot();
  std::vector<double> row;
  row.reserve(columns_.size());
  for (Column& c : columns_) {
    switch (c.mode) {
      case Column::Mode::kDelta: {
        const double v = snapshot.Value(c.metric);
        row.push_back(v - c.last);
        c.last = v;
        break;
      }
      case Column::Mode::kLevel:
        row.push_back(snapshot.Value(c.metric));
        break;
      case Column::Mode::kProbe:
        row.push_back(c.probe ? c.probe() : 0);
        break;
    }
  }
  series_.timestamps.push_back(now);
  series_.points.push_back(std::move(row));
}

TimeSeries TimeSeriesSampler::Take() { return std::move(series_); }

}  // namespace bestpeer::obs
