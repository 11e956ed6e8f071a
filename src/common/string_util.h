// Small string helpers shared across the project.
#ifndef SILKROUTE_COMMON_STRING_UTIL_H_
#define SILKROUTE_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace silkroute {

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view s);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// ASCII uppercase copy.
std::string ToUpper(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Canonical form of a SQL text: whitespace runs collapse to one space,
/// leading/trailing whitespace dropped. The component-result cache
/// (engine/result_cache.h) keys fragments on it, so the same query never
/// keys apart on formatting.
std::string NormalizeSql(std::string_view sql);

}  // namespace silkroute

#endif  // SILKROUTE_COMMON_STRING_UTIL_H_
