#include "scenario/spec.h"

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/status.h"
#include "workload/corpus.h"

namespace bestpeer::scenario {

namespace {

using obs::JsonValue;

/// Strict field cursor over one JSON object: every member must be
/// claimed by exactly one Take* call, duplicates and unknown keys are
/// fatal, and type mismatches name the key and context. The pattern is
/// claim-then-verify: handlers Take what they know, then Finish() rejects
/// whatever is left.
class FieldReader {
 public:
  FieldReader(const JsonValue& value, std::string context)
      : context_(std::move(context)) {
    if (value.is_object()) {
      members_ = &value.AsObject();
      taken_.assign(members_->size(), false);
    }
  }

  Status RequireObject() const {
    if (members_ == nullptr) {
      return Err("expected an object");
    }
    for (size_t i = 0; i < members_->size(); ++i) {
      for (size_t j = i + 1; j < members_->size(); ++j) {
        if ((*members_)[i].first == (*members_)[j].first) {
          return Err("duplicate key '" + (*members_)[i].first + "'");
        }
      }
    }
    return Status::OK();
  }

  /// The member for `key`, marking it claimed; nullptr when absent.
  const JsonValue* Take(std::string_view key) {
    if (members_ == nullptr) return nullptr;
    for (size_t i = 0; i < members_->size(); ++i) {
      if ((*members_)[i].first == key) {
        taken_[i] = true;
        return &(*members_)[i].second;
      }
    }
    return nullptr;
  }

  /// Optional number with range check; absent keeps *out unchanged.
  Status TakeNumber(std::string_view key, double* out, double min,
                    double max) {
    const JsonValue* v = Take(key);
    if (v == nullptr) return Status::OK();
    if (!v->is_number()) return Err(std::string(key) + " must be a number");
    const double n = v->AsNumber();
    if (!(n >= min && n <= max)) {
      return Err(std::string(key) + " = " + std::to_string(n) +
                 " out of range [" + std::to_string(min) + ", " +
                 std::to_string(max) + "]");
    }
    *out = n;
    return Status::OK();
  }

  /// Optional non-negative integer (rejects fractional values).
  Status TakeCount(std::string_view key, size_t* out, double max) {
    double n = static_cast<double>(*out);
    BP_RETURN_IF_ERROR(TakeNumber(key, &n, 0, max));
    if (n != std::floor(n)) {
      return Err(std::string(key) + " must be an integer");
    }
    *out = static_cast<size_t>(n);
    return Status::OK();
  }

  Status TakeString(std::string_view key, std::string* out) {
    const JsonValue* v = Take(key);
    if (v == nullptr) return Status::OK();
    if (!v->is_string()) return Err(std::string(key) + " must be a string");
    *out = v->AsString();
    return Status::OK();
  }

  Status TakeBool(std::string_view key, bool* out) {
    const JsonValue* v = Take(key);
    if (v == nullptr) return Status::OK();
    if (!v->is_bool()) return Err(std::string(key) + " must be a boolean");
    *out = v->AsBool();
    return Status::OK();
  }

  /// After all Take* calls: any unclaimed member is an unknown key.
  Status Finish() const {
    if (members_ == nullptr) return Status::OK();
    for (size_t i = 0; i < members_->size(); ++i) {
      if (!taken_[i]) {
        return Err("unknown key '" + (*members_)[i].first + "'");
      }
    }
    return Status::OK();
  }

  Status Err(const std::string& msg) const {
    return Status::InvalidArgument("scenario: " + msg + " in " + context_);
  }

 private:
  const std::vector<std::pair<std::string, JsonValue>>* members_ = nullptr;
  std::vector<bool> taken_;
  std::string context_;
};

constexpr double kMaxMs = 3.6e9;  // One sim-hour; generous for any run.

Status ParseTopology(const JsonValue& value, TopologySpec* out) {
  FieldReader r(value, "topology");
  BP_RETURN_IF_ERROR(r.RequireObject());
  BP_RETURN_IF_ERROR(r.TakeString("kind", &out->kind));
  BP_RETURN_IF_ERROR(r.TakeCount("fanout", &out->fanout, 64));
  BP_RETURN_IF_ERROR(r.TakeCount("max_degree", &out->max_degree, 64));
  BP_RETURN_IF_ERROR(r.Finish());
  if (out->kind != "star" && out->kind != "tree" && out->kind != "line" &&
      out->kind != "random") {
    return r.Err("kind must be star|tree|line|random, got '" + out->kind +
                 "'");
  }
  if (out->fanout == 0) return r.Err("fanout must be >= 1");
  if (out->max_degree < 2) return r.Err("max_degree must be >= 2");
  return Status::OK();
}

Status ParseClass(const JsonValue& value, size_t index, NodeClassSpec* out) {
  FieldReader r(value, "classes[" + std::to_string(index) + "]");
  BP_RETURN_IF_ERROR(r.RequireObject());
  BP_RETURN_IF_ERROR(r.TakeString("name", &out->name));
  BP_RETURN_IF_ERROR(r.TakeCount("count", &out->count, 100000));
  BP_RETURN_IF_ERROR(r.TakeNumber("bandwidth_mbps", &out->bandwidth_mbps,
                                  0.008, 100000));
  BP_RETURN_IF_ERROR(
      r.TakeNumber("extra_latency_ms", &out->extra_latency_ms, 0, 10000));
  double threads = out->cpu_threads;
  BP_RETURN_IF_ERROR(r.TakeNumber("cpu_threads", &threads, 1, 256));
  if (threads != std::floor(threads)) {
    return r.Err("cpu_threads must be an integer");
  }
  out->cpu_threads = static_cast<int>(threads);
  BP_RETURN_IF_ERROR(
      r.TakeCount("objects_per_node", &out->objects_per_node, 1000000));
  BP_RETURN_IF_ERROR(
      r.TakeCount("matches_per_node", &out->matches_per_node, 100000));
  BP_RETURN_IF_ERROR(r.TakeBool("issues_queries", &out->issues_queries));
  BP_RETURN_IF_ERROR(r.TakeBool("free_rider", &out->free_rider));
  BP_RETURN_IF_ERROR(r.Finish());
  if (out->name.empty()) return r.Err("class needs a non-empty name");
  if (out->count == 0) return r.Err("count must be >= 1");
  if (out->matches_per_node > out->objects_per_node) {
    return r.Err("matches_per_node exceeds objects_per_node");
  }
  if (out->free_rider) {
    if (out->matches_per_node != 0) {
      return r.Err("free_rider class must have matches_per_node = 0");
    }
    if (!out->issues_queries) {
      return r.Err("free_rider class must issue queries");
    }
  }
  return Status::OK();
}

Status ParseArrival(const JsonValue& value, const std::string& phase_name,
                    double duration_ms, ArrivalSpec* out) {
  FieldReader r(value, "phase '" + phase_name + "' arrival");
  BP_RETURN_IF_ERROR(r.RequireObject());
  std::string process;
  BP_RETURN_IF_ERROR(r.TakeString("process", &process));
  if (process == "constant") {
    out->process = ArrivalProcess::kConstant;
  } else if (process == "poisson") {
    out->process = ArrivalProcess::kPoisson;
  } else if (process == "flash") {
    out->process = ArrivalProcess::kFlash;
  } else if (process == "diurnal") {
    out->process = ArrivalProcess::kDiurnal;
  } else {
    return r.Err("process must be constant|poisson|flash|diurnal, got '" +
                 process + "'");
  }
  BP_RETURN_IF_ERROR(
      r.TakeNumber("rate_per_s", &out->rate_per_s, 0.001, 1e6));
  BP_RETURN_IF_ERROR(r.TakeNumber("multiplier", &out->multiplier, 1, 1000));
  BP_RETURN_IF_ERROR(
      r.TakeNumber("spike_start_ms", &out->spike_start_ms, 0, kMaxMs));
  BP_RETURN_IF_ERROR(
      r.TakeNumber("spike_end_ms", &out->spike_end_ms, 0, kMaxMs));
  BP_RETURN_IF_ERROR(r.TakeNumber("amplitude", &out->amplitude, 0, 1));
  BP_RETURN_IF_ERROR(r.TakeNumber("period_ms", &out->period_ms, 0, kMaxMs));
  BP_RETURN_IF_ERROR(r.Finish());
  if (out->rate_per_s <= 0) return r.Err("rate_per_s is required (> 0)");
  if (out->process == ArrivalProcess::kFlash) {
    if (out->multiplier <= 1) return r.Err("flash needs multiplier > 1");
    if (!(out->spike_start_ms < out->spike_end_ms)) {
      return r.Err("flash needs spike_start_ms < spike_end_ms");
    }
    if (out->spike_end_ms > duration_ms) {
      return r.Err("spike window extends past the phase duration");
    }
  }
  if (out->process == ArrivalProcess::kDiurnal) {
    if (out->amplitude <= 0) return r.Err("diurnal needs amplitude > 0");
    if (out->period_ms <= 0) return r.Err("diurnal needs period_ms > 0");
  }
  return Status::OK();
}

Status ParsePhase(const JsonValue& value, size_t index, PhaseSpec* out) {
  FieldReader r(value, "phases[" + std::to_string(index) + "]");
  BP_RETURN_IF_ERROR(r.RequireObject());
  BP_RETURN_IF_ERROR(r.TakeString("name", &out->name));
  BP_RETURN_IF_ERROR(
      r.TakeNumber("duration_ms", &out->duration_ms, 0, kMaxMs));
  const JsonValue* arrival = r.Take("arrival");
  BP_RETURN_IF_ERROR(r.Finish());
  if (out->name.empty()) return r.Err("phase needs a non-empty name");
  if (out->duration_ms <= 0) return r.Err("duration_ms must be > 0");
  if (arrival == nullptr) return r.Err("phase needs an arrival process");
  return ParseArrival(*arrival, out->name, out->duration_ms, &out->arrival);
}

Status ParseChurnWave(const JsonValue& value, size_t index,
                      ChurnWaveSpec* out) {
  FieldReader r(value, "churn[" + std::to_string(index) + "]");
  BP_RETURN_IF_ERROR(r.RequireObject());
  BP_RETURN_IF_ERROR(r.TakeNumber("at_ms", &out->at_ms, 0, kMaxMs));
  BP_RETURN_IF_ERROR(r.TakeString("class", &out->target_class));
  BP_RETURN_IF_ERROR(r.TakeNumber("fraction", &out->fraction, 0, 1));
  BP_RETURN_IF_ERROR(
      r.TakeNumber("down_for_ms", &out->down_for_ms, 0, kMaxMs));
  BP_RETURN_IF_ERROR(r.Finish());
  if (out->target_class.empty()) return r.Err("churn wave needs a class");
  if (out->fraction <= 0) return r.Err("fraction must be in (0, 1]");
  return Status::OK();
}

Status ParseFault(const JsonValue& value,
                  workload::FaultRecoveryOptions* out) {
  FieldReader r(value, "fault");
  BP_RETURN_IF_ERROR(r.RequireObject());
  BP_RETURN_IF_ERROR(
      r.TakeNumber("message_loss", &out->message_loss, 0, 0.9));
  double deadline_ms = ToMillis(out->query_deadline);
  BP_RETURN_IF_ERROR(
      r.TakeNumber("query_deadline_ms", &deadline_ms, 0, kMaxMs));
  out->query_deadline = MsToSimTime(deadline_ms);
  double retries = out->liglo_retries;
  BP_RETURN_IF_ERROR(r.TakeNumber("liglo_retries", &retries, 0, 16));
  out->liglo_retries = static_cast<int>(retries);
  double threshold = out->peer_failure_threshold;
  BP_RETURN_IF_ERROR(
      r.TakeNumber("peer_failure_threshold", &threshold, 1, 1000));
  out->peer_failure_threshold = static_cast<uint32_t>(threshold);
  double expiry_ms = ToMillis(out->agent_seen_expiry);
  BP_RETURN_IF_ERROR(
      r.TakeNumber("agent_seen_expiry_ms", &expiry_ms, 0, kMaxMs));
  out->agent_seen_expiry = MsToSimTime(expiry_ms);
  return r.Finish();
}

}  // namespace

SimTime MsToSimTime(double ms) {
  return static_cast<SimTime>(std::llround(ms * 1000.0));
}

const char* ArrivalProcessName(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kConstant:
      return "constant";
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kFlash:
      return "flash";
    case ArrivalProcess::kDiurnal:
      return "diurnal";
  }
  return "?";
}

size_t ScenarioSpec::TotalNodes() const {
  size_t n = 0;
  for (const auto& c : classes) n += c.count;
  return n;
}

SimTime ScenarioSpec::TotalDuration() const {
  double ms = 0;
  for (const auto& p : phases) ms += p.duration_ms;
  return MsToSimTime(ms);
}

size_t ScenarioSpec::ClassOffset(size_t c) const {
  size_t offset = 0;
  for (size_t i = 0; i < c; ++i) offset += classes[i].count;
  return offset;
}

size_t ScenarioSpec::ClassOf(size_t node) const {
  size_t offset = 0;
  for (size_t c = 0; c < classes.size(); ++c) {
    offset += classes[c].count;
    if (node < offset) return c;
  }
  return classes.size() - 1;
}

Result<ScenarioSpec> ParseScenario(const obs::JsonValue& root) {
  ScenarioSpec spec;
  FieldReader r(root, "scenario");
  BP_RETURN_IF_ERROR(r.RequireObject());
  BP_RETURN_IF_ERROR(r.TakeString("name", &spec.name));
  double seed = static_cast<double>(spec.seed);
  BP_RETURN_IF_ERROR(r.TakeNumber("seed", &seed, 0, 9e15));
  if (seed != std::floor(seed)) return r.Err("seed must be an integer");
  spec.seed = static_cast<uint64_t>(seed);
  const JsonValue* topology = r.Take("topology");
  BP_RETURN_IF_ERROR(r.TakeCount("query_pool", &spec.query_pool, 10000));
  BP_RETURN_IF_ERROR(
      r.TakeNumber("query_zipf_skew", &spec.query_zipf_skew, 0, 4));
  BP_RETURN_IF_ERROR(r.TakeCount("object_size", &spec.object_size, 1 << 20));
  size_t ttl = spec.ttl;
  BP_RETURN_IF_ERROR(r.TakeCount("ttl", &ttl, 255));
  spec.ttl = static_cast<uint16_t>(ttl);
  BP_RETURN_IF_ERROR(
      r.TakeCount("max_direct_peers", &spec.max_direct_peers, 1024));
  std::string reconfigure = "off";
  BP_RETURN_IF_ERROR(r.TakeString("reconfigure", &reconfigure));
  if (reconfigure == "phase") {
    spec.reconfigure_each_phase = true;
  } else if (reconfigure != "off") {
    return r.Err("reconfigure must be phase|off, got '" + reconfigure + "'");
  }
  const JsonValue* classes = r.Take("classes");
  const JsonValue* phases = r.Take("phases");
  const JsonValue* churn = r.Take("churn");
  const JsonValue* fault = r.Take("fault");
  BP_RETURN_IF_ERROR(r.Finish());

  if (spec.name.empty()) return r.Err("scenario needs a non-empty name");
  for (char c : spec.name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return r.Err("name must match [a-z0-9_]+ (used in filenames)");
  }
  if (spec.query_pool == 0) return r.Err("query_pool must be >= 1");
  if (spec.object_size == 0) return r.Err("object_size must be >= 1");
  const size_t pool_bytes =
      workload::CorpusGenerator::PoolBytes(spec.query_pool);
  if (pool_bytes > spec.object_size) {
    return r.Err("query_pool " + std::to_string(spec.query_pool) +
                 " needs object_size >= " + std::to_string(pool_bytes) +
                 ", got " + std::to_string(spec.object_size));
  }
  if (spec.ttl == 0) return r.Err("ttl must be >= 1");
  if (spec.max_direct_peers == 0) {
    return r.Err("max_direct_peers must be >= 1");
  }

  if (topology != nullptr) {
    BP_RETURN_IF_ERROR(ParseTopology(*topology, &spec.topology));
  }

  if (classes == nullptr || !classes->is_array() ||
      classes->AsArray().empty()) {
    return r.Err("scenario needs a non-empty classes array");
  }
  for (size_t i = 0; i < classes->AsArray().size(); ++i) {
    NodeClassSpec cls;
    BP_RETURN_IF_ERROR(ParseClass(classes->AsArray()[i], i, &cls));
    for (const auto& earlier : spec.classes) {
      if (earlier.name == cls.name) {
        return r.Err("duplicate class name '" + cls.name + "'");
      }
    }
    spec.classes.push_back(std::move(cls));
  }
  if (spec.TotalNodes() < 2) return r.Err("scenario needs >= 2 nodes");
  bool any_querying = false;
  for (const auto& c : spec.classes) any_querying |= c.issues_queries;
  if (!any_querying) return r.Err("no class issues queries");

  if (phases == nullptr || !phases->is_array() ||
      phases->AsArray().empty()) {
    return r.Err("scenario needs a non-empty phases array");
  }
  for (size_t i = 0; i < phases->AsArray().size(); ++i) {
    PhaseSpec phase;
    BP_RETURN_IF_ERROR(ParsePhase(phases->AsArray()[i], i, &phase));
    for (const auto& earlier : spec.phases) {
      if (earlier.name == phase.name) {
        return r.Err("duplicate phase name '" + phase.name + "'");
      }
    }
    spec.phases.push_back(std::move(phase));
  }

  if (churn != nullptr) {
    if (!churn->is_array()) return r.Err("churn must be an array");
    const double total_ms = ToMillis(spec.TotalDuration());
    for (size_t i = 0; i < churn->AsArray().size(); ++i) {
      ChurnWaveSpec wave;
      BP_RETURN_IF_ERROR(ParseChurnWave(churn->AsArray()[i], i, &wave));
      bool found = false;
      for (const auto& c : spec.classes) found |= c.name == wave.target_class;
      if (!found) {
        return r.Err("churn wave targets unknown class '" +
                     wave.target_class + "'");
      }
      if (wave.at_ms >= total_ms) {
        return r.Err("churn wave at_ms is past the end of the run");
      }
      spec.churn.push_back(std::move(wave));
    }
  }

  if (fault != nullptr) {
    BP_RETURN_IF_ERROR(ParseFault(*fault, &spec.fault));
  }
  return spec;
}

Result<ScenarioSpec> LoadScenarioFile(const std::string& path) {
  BP_ASSIGN_OR_RETURN(obs::JsonValue root, obs::ReadJsonFile(path));
  return ParseScenario(root);
}

}  // namespace bestpeer::scenario
