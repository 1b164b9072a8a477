#ifndef BESTPEER_UTIL_JSON_WRITER_H_
#define BESTPEER_UTIL_JSON_WRITER_H_

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace bestpeer {

/// Appends `s` with JSON string escaping (quotes, backslash, control
/// characters). Shared by every writer in the repo so no emitted string
/// field can break a report's JSON validity.
inline void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

/// `s` as a complete JSON string literal, surrounding quotes included.
inline std::string JsonQuoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  AppendJsonEscaped(&out, s);
  out += '"';
  return out;
}

/// Appends a double as a valid JSON number. JSON has no nan/inf, which
/// "%g" happily emits — non-finite values become null instead. Integral
/// values print without a fraction so reports diff cleanly across runs.
inline void AppendJsonNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  char buf[40];
  if (std::nearbyint(v) == v && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  *out += buf;
}

inline std::string JsonNumber(double v) {
  std::string out;
  AppendJsonNumber(&out, v);
  return out;
}

}  // namespace bestpeer

#endif  // BESTPEER_UTIL_JSON_WRITER_H_
