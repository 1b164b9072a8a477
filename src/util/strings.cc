#include "util/strings.h"

#include <array>

namespace bestpeer {

namespace {

// The one token alphabet of the keyword search path: each byte's
// lower-case form if it is alphanumeric, 0 if it separates tokens. This
// is <cctype>'s isalnum/tolower in the "C" locale, which the program
// never leaves (nothing calls setlocale), so bytes >= 0x80 separate.
constexpr std::array<char, 256> kTokenChar = [] {
  std::array<char, 256> table{};
  for (char c = '0'; c <= '9'; ++c) table[static_cast<unsigned char>(c)] = c;
  for (char c = 'a'; c <= 'z'; ++c) {
    table[static_cast<unsigned char>(c)] = c;
    table[static_cast<unsigned char>(c - 'a' + 'A')] = c;
  }
  return table;
}();

char TokenChar(char c) { return kTokenChar[static_cast<unsigned char>(c)]; }

}  // namespace

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    // Only letters change case, and every letter is a token byte.
    if (const char t = TokenChar(c); t != 0) c = t;
  }
  return out;
}

std::vector<std::string> TokenizeKeywords(std::string_view text) {
  std::vector<std::string> tokens;
  std::string cur;
  for (char ch : text) {
    if (const char t = TokenChar(ch); t != 0) {
      cur += t;
    } else if (!cur.empty()) {
      tokens.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) tokens.push_back(std::move(cur));
  return tokens;
}

bool ContainsKeyword(std::string_view text, std::string_view keyword) {
  // A keyword holding a separator byte is never one token.
  if (keyword.empty()) return false;
  for (char c : keyword) {
    if (TokenChar(c) == 0) return false;
  }
  // Allocation-free scan: find case-insensitive occurrences and check
  // whole-token boundaries. This is the hot path of every simulated
  // store scan, so it avoids tokenizing the full text. Every keyword
  // byte folds to a nonzero token byte, so a match never spans a
  // separator.
  const size_t n = keyword.size();
  const char first = TokenChar(keyword[0]);
  for (size_t i = 0; i + n <= text.size(); ++i) {
    if (TokenChar(text[i]) != first) continue;
    size_t j = 1;
    while (j < n && TokenChar(text[i + j]) == TokenChar(keyword[j])) ++j;
    if (j != n) continue;
    const bool left_ok = i == 0 || TokenChar(text[i - 1]) == 0;
    const bool right_ok = i + n == text.size() || TokenChar(text[i + n]) == 0;
    if (left_ok && right_ok) return true;
  }
  return false;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace bestpeer
