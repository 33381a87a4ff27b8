// String formatting and parsing helpers (the toolchain's std::format is not
// yet usable, so we provide the small subset the library needs).
#ifndef PCBL_UTIL_STR_H_
#define PCBL_UTIL_STR_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace pcbl {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Concatenates the streamable arguments.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  ((os << args), ...);
  return os.str();
}

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True when `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Lower-cases ASCII.
std::string ToLower(std::string_view s);

/// Strict integer / double parsing (whole string must be consumed).
Result<int64_t> ParseInt64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

/// Formats 12345678 as "12,345,678".
std::string WithThousandsSeparators(int64_t value);

/// Formats a fraction as a percent string like "1.04%".
std::string PercentString(double fraction, int decimals = 2);

}  // namespace pcbl

#endif  // PCBL_UTIL_STR_H_
