/// \file expect.hpp
/// Error hierarchy and precondition-checking macros.
///
/// The library throws exceptions for malformed inputs (I.5/I.10 of the
/// C++ Core Guidelines: state and enforce preconditions, use exceptions to
/// signal failure).  Analysis *outcomes* such as "no guarantee can be
/// given" are reported through result types, not exceptions.

#ifndef WHARF_UTIL_EXPECT_HPP
#define WHARF_UTIL_EXPECT_HPP

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace wharf {

/// Base class of all wharf exceptions.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A caller violated a documented precondition (bad model, bad argument).
class InvalidArgument : public Error {
 public:
  using Error::Error;
};

/// A textual system description could not be parsed.
class ParseError : public Error {
 public:
  ParseError(std::string message, int line)
      : Error("parse error at line " + std::to_string(line) + ": " + message),
        line_(line) {}

  /// 1-based line number of the offending input line.
  [[nodiscard]] int line() const noexcept { return line_; }

 private:
  int line_;
};

/// An LP/ILP solver was handed a malformed problem or hit an internal
/// limit (iteration/node caps).
class SolverError : public Error {
 public:
  using Error::Error;
};

/// An analysis hit a configured resource cap (e.g. busy-window search
/// bound) in a way that is a usage error rather than an analysis outcome.
class AnalysisError : public Error {
 public:
  using Error::Error;
};

namespace detail {

/// `__FILE__` without the build machine's directories: the part after
/// the last "src/" ("core/chain.cpp"), else the file name.  Error
/// strings reach clients (serve reasons), which must not learn paths.
inline std::string_view source_path(std::string_view file) {
  const std::size_t src = file.rfind("src/");
  if (src != std::string_view::npos) return file.substr(src + 4);
  const std::size_t slash = file.rfind('/');
  return slash == std::string_view::npos ? file : file.substr(slash + 1);
}

[[noreturn]] inline void throw_expect_failure(const char* expr, const char* file, int line,
                                              const std::string& message) {
  std::ostringstream os;
  os << message << " [" << expr << " at " << source_path(file) << ':' << line << ']';
  throw InvalidArgument(os.str());
}

[[noreturn]] inline void throw_assert_failure(const char* expr, const char* file, int line) {
  std::ostringstream os;
  os << "internal invariant violated: " << expr << " at " << source_path(file) << ':' << line;
  throw std::logic_error(os.str());
}

}  // namespace detail
}  // namespace wharf

/// Validates a documented precondition; throws wharf::InvalidArgument with
/// the given message on failure.  `msg` may use stream syntax:
/// WHARF_EXPECT(p > 0, "period must be positive, got " << p);
#define WHARF_EXPECT(cond, msg)                                                      \
  do {                                                                               \
    if (!(cond)) {                                                                   \
      std::ostringstream wharf_expect_os_;                                           \
      wharf_expect_os_ << msg;                                                       \
      ::wharf::detail::throw_expect_failure(#cond, __FILE__, __LINE__,               \
                                            wharf_expect_os_.str());                 \
    }                                                                                \
  } while (false)

/// Internal invariant check (logic errors, not input validation).
#define WHARF_ASSERT(cond)                                                           \
  do {                                                                               \
    if (!(cond)) ::wharf::detail::throw_assert_failure(#cond, __FILE__, __LINE__);   \
  } while (false)

#endif  // WHARF_UTIL_EXPECT_HPP
