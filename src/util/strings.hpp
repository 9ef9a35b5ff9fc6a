/// \file strings.hpp
/// Small string utilities shared by the parser, serializers and report
/// printers.  (libstdc++ 12 does not ship <format>; `cat` fills the gap.)

#ifndef WHARF_UTIL_STRINGS_HPP
#define WHARF_UTIL_STRINGS_HPP

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace wharf::util {

/// Concatenates all arguments through an ostringstream.
template <typename... Args>
[[nodiscard]] std::string cat(const Args&... args) {
  if constexpr (sizeof...(Args) == 0) {
    return {};
  } else {
    std::ostringstream os;
    (os << ... << args);
    return os.str();
  }
}

/// Strips ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits on a single character; empty fields are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; empty fields are dropped.
[[nodiscard]] std::vector<std::string> split_whitespace(std::string_view s);

/// Joins `parts` with `sep` between elements.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a signed 64-bit integer; the full string must be consumed.
/// Returns false on any syntax error or overflow.
[[nodiscard]] bool parse_int64(std::string_view s, long long& out);

/// Parses a double; the full string must be consumed.
[[nodiscard]] bool parse_double(std::string_view s, double& out);

/// Thread-safe strerror: the system message for `errno_value`
/// (std::strerror writes to shared static storage, which the
/// concurrency-mt-unsafe tidy check rightly refuses in a server that
/// formats errors from concurrent worker threads).
[[nodiscard]] std::string errno_message(int errno_value);

}  // namespace wharf::util

#endif  // WHARF_UTIL_STRINGS_HPP
