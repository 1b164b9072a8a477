#ifndef BESTPEER_UTIL_STRINGS_H_
#define BESTPEER_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace bestpeer {

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// ASCII lower-casing.
std::string ToLower(std::string_view s);

/// Tokenizes text into lowercase ASCII-alphanumeric keywords; every other
/// byte, >= 0x80 included, is a separator. The one token definition of
/// the keyword search path (StorM scan and index, Gnutella file-name
/// matching).
std::vector<std::string> TokenizeKeywords(std::string_view text);

/// True iff `text` contains `keyword` as one of its tokens
/// (case-insensitive whole-token match): exactly
/// "ToLower(keyword) is in TokenizeKeywords(text)", so a keyword holding a
/// separator byte matches nothing.
bool ContainsKeyword(std::string_view text, std::string_view keyword);

/// True iff `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

}  // namespace bestpeer

#endif  // BESTPEER_UTIL_STRINGS_H_
