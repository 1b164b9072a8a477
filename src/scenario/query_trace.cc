#include "scenario/query_trace.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json_reader.h"
#include "util/json_writer.h"
#include "util/status.h"

namespace bestpeer::scenario {

namespace {

Status TraceError(const std::string& path, size_t line,
                  const std::string& msg) {
  return Status::InvalidArgument("query trace " + path + ":" +
                                 std::to_string(line) + ": " + msg);
}

/// A required integer-valued number member; rejects anything else.
Status GetCount(const obs::JsonValue& obj, const char* key, double max,
                const std::string& path, size_t line, double* out) {
  const obs::JsonValue* v = obj.Find(key);
  if (v == nullptr) return TraceError(path, line, std::string("missing '") + key + "'");
  if (!v->is_number()) {
    return TraceError(path, line, std::string("'") + key + "' must be a number");
  }
  const double n = v->AsNumber();
  if (n < 0 || n > max || n != std::floor(n)) {
    return TraceError(path, line,
                      std::string("'") + key + "' out of range");
  }
  *out = n;
  return Status::OK();
}

Status CheckKnownKeys(const obs::JsonValue& obj,
                      const std::vector<std::string>& known,
                      const std::string& path, size_t line) {
  if (!obj.is_object()) {
    return TraceError(path, line, "expected a JSON object");
  }
  for (const auto& [key, value] : obj.AsObject()) {
    bool ok = false;
    for (const auto& k : known) ok |= k == key;
    if (!ok) return TraceError(path, line, "unknown key '" + key + "'");
  }
  return Status::OK();
}

}  // namespace

Status WriteQueryTrace(const QueryTrace& trace, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot write query trace " + path);
  }
  std::fprintf(f, "{\"v\":1,\"scenario\":%s,\"seed\":%llu,\"queries\":%zu}\n",
               JsonQuoted(trace.scenario).c_str(),
               static_cast<unsigned long long>(trace.seed),
               trace.queries.size());
  for (const TracedQuery& q : trace.queries) {
    std::fprintf(f, "{\"at_us\":%lld,\"node\":%zu,\"keyword\":%s}\n",
                 static_cast<long long>(q.at), q.node,
                 JsonQuoted(q.keyword).c_str());
  }
  if (std::fclose(f) != 0) {
    return Status::IoError("short write on query trace " + path);
  }
  return Status::OK();
}

Result<QueryTrace> ReadQueryTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read query trace " + path);
  QueryTrace trace;
  std::string line;
  size_t line_no = 0;
  size_t expected = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      return TraceError(path, line_no, "empty line");
    }
    BP_ASSIGN_OR_RETURN(obs::JsonValue value, obs::ParseJson(line));
    if (line_no == 1) {
      BP_RETURN_IF_ERROR(CheckKnownKeys(
          value, {"v", "scenario", "seed", "queries"}, path, line_no));
      double version = 0;
      BP_RETURN_IF_ERROR(GetCount(value, "v", 1e9, path, line_no, &version));
      if (version != 1) {
        return TraceError(path, line_no, "unsupported trace version");
      }
      const obs::JsonValue* name = value.Find("scenario");
      if (name == nullptr || !name->is_string()) {
        return TraceError(path, line_no, "'scenario' must be a string");
      }
      trace.scenario = name->AsString();
      double seed = 0;
      BP_RETURN_IF_ERROR(GetCount(value, "seed", 9e15, path, line_no, &seed));
      trace.seed = static_cast<uint64_t>(seed);
      double count = 0;
      BP_RETURN_IF_ERROR(
          GetCount(value, "queries", 1e9, path, line_no, &count));
      expected = static_cast<size_t>(count);
      continue;
    }
    BP_RETURN_IF_ERROR(
        CheckKnownKeys(value, {"at_us", "node", "keyword"}, path, line_no));
    TracedQuery q;
    double at = 0;
    BP_RETURN_IF_ERROR(GetCount(value, "at_us", 9e15, path, line_no, &at));
    q.at = static_cast<SimTime>(at);
    double node = 0;
    BP_RETURN_IF_ERROR(GetCount(value, "node", 1e9, path, line_no, &node));
    q.node = static_cast<size_t>(node);
    const obs::JsonValue* keyword = value.Find("keyword");
    if (keyword == nullptr || !keyword->is_string()) {
      return TraceError(path, line_no, "'keyword' must be a string");
    }
    q.keyword = keyword->AsString();
    if (!trace.queries.empty() && q.at < trace.queries.back().at) {
      return TraceError(path, line_no, "out-of-order at_us");
    }
    trace.queries.push_back(std::move(q));
  }
  if (line_no == 0) return TraceError(path, 1, "missing header line");
  if (trace.queries.size() != expected) {
    return TraceError(path, line_no,
                      "truncated: header promised " +
                          std::to_string(expected) + " queries, got " +
                          std::to_string(trace.queries.size()));
  }
  return trace;
}

}  // namespace bestpeer::scenario
