/// \file status.hpp
/// Non-throwing error channel: Status / Expected<T>.
///
/// The core library keeps its exception-based precondition contract
/// (expect.hpp): malformed inputs throw wharf::InvalidArgument and
/// friends.  Servers and batch drivers, however, must never tear down a
/// whole batch because one request was malformed — the Engine facade
/// (src/engine/) therefore reports every per-query outcome as a Status
/// and converts escaping exceptions at the boundary via capture().
///
/// StatusCode also carries the *analysis* outcome kNoGuarantee so the
/// CLI can route "analysis ran but proves nothing" (exit code 3)
/// separately from success (0) and input errors (2).

#ifndef WHARF_UTIL_STATUS_HPP
#define WHARF_UTIL_STATUS_HPP

#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "util/expect.hpp"

namespace wharf {

/// Machine-readable classification of an operation outcome.
enum class StatusCode {
  kOk = 0,
  /// A documented precondition was violated (wharf::InvalidArgument).
  kInvalidArgument,
  /// A named entity (chain, task, sweep peer) does not exist or cannot be
  /// reached.
  kNotFound,
  /// A textual description could not be parsed (wharf::ParseError).
  kParseError,
  /// A configured resource cap was hit (wharf::SolverError/AnalysisError).
  kResourceExhausted,
  /// The analysis ran but cannot bound the misses (DmmStatus::kNoGuarantee).
  kNoGuarantee,
  /// A request's deadline elapsed before its work started (the async
  /// serve core answers the request with this and skips the work).
  kDeadlineExceeded,
  /// Unexpected internal failure (std::logic_error, unknown exception).
  kInternal,
};

/// Human-readable code name ("ok", "invalid-argument", ...).
[[nodiscard]] inline std::string to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid-argument";
    case StatusCode::kNotFound: return "not-found";
    case StatusCode::kParseError: return "parse-error";
    case StatusCode::kResourceExhausted: return "resource-exhausted";
    case StatusCode::kNoGuarantee: return "no-guarantee";
    case StatusCode::kDeadlineExceeded: return "deadline-exceeded";
    case StatusCode::kInternal: return "internal";
  }
  return "unknown";
}

/// An outcome: kOk (empty message) or an error code with a message.
class Status {
 public:
  /// Default: OK.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status ok() { return {}; }
  [[nodiscard]] static Status invalid_argument(std::string m) {
    return {StatusCode::kInvalidArgument, std::move(m)};
  }
  [[nodiscard]] static Status not_found(std::string m) {
    return {StatusCode::kNotFound, std::move(m)};
  }
  [[nodiscard]] static Status parse_error(std::string m) {
    return {StatusCode::kParseError, std::move(m)};
  }
  [[nodiscard]] static Status resource_exhausted(std::string m) {
    return {StatusCode::kResourceExhausted, std::move(m)};
  }
  [[nodiscard]] static Status no_guarantee(std::string m) {
    return {StatusCode::kNoGuarantee, std::move(m)};
  }
  [[nodiscard]] static Status deadline_exceeded(std::string m) {
    return {StatusCode::kDeadlineExceeded, std::move(m)};
  }
  [[nodiscard]] static Status internal(std::string m) {
    return {StatusCode::kInternal, std::move(m)};
  }

  [[nodiscard]] bool is_ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// "ok" or "<code>: <message>".
  [[nodiscard]] std::string to_string() const {
    if (is_ok()) return "ok";
    return message_.empty() ? wharf::to_string(code_)
                            : wharf::to_string(code_) + ": " + message_;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A value of type T or the Status explaining its absence.  The error
/// Status is never OK.
template <typename T>
class Expected {
 public:
  Expected(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Expected(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    WHARF_EXPECT(!status_.is_ok(), "Expected<T> error constructor requires a non-OK status");
  }

  [[nodiscard]] bool has_value() const { return value_.has_value(); }
  [[nodiscard]] explicit operator bool() const { return has_value(); }

  /// The value; throws std::logic_error when absent (programming error —
  /// check has_value() first in non-throwing contexts).
  [[nodiscard]] const T& value() const& {
    if (!value_.has_value()) {
      throw std::logic_error("Expected<T>::value() on error: " + status_.to_string());
    }
    return *value_;
  }
  [[nodiscard]] T& value() & {
    if (!value_.has_value()) {
      throw std::logic_error("Expected<T>::value() on error: " + status_.to_string());
    }
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    if (!value_.has_value()) {
      throw std::logic_error("Expected<T>::value() on error: " + status_.to_string());
    }
    return std::move(*value_);
  }

  [[nodiscard]] T value_or(T fallback) const {
    return value_.has_value() ? *value_ : std::move(fallback);
  }

  /// OK when a value is present, the error otherwise.
  [[nodiscard]] const Status& status() const { return status_; }

 private:
  std::optional<T> value_;
  Status status_;  ///< OK iff value_ engaged
};

/// Maps an in-flight exception (from the wharf::Error hierarchy or the
/// standard library) onto a Status.  Call from inside a catch block.
[[nodiscard]] inline Status status_from_current_exception() {
  try {
    throw;
  } catch (const ParseError& e) {
    return Status::parse_error(e.what());
  } catch (const InvalidArgument& e) {
    return Status::invalid_argument(e.what());
  } catch (const SolverError& e) {
    return Status::resource_exhausted(e.what());
  } catch (const AnalysisError& e) {
    return Status::resource_exhausted(e.what());
  } catch (const Error& e) {
    return Status::internal(e.what());
  } catch (const std::exception& e) {
    return Status::internal(e.what());
  } catch (...) {
    return Status::internal("unknown exception");
  }
}

/// Runs `fn` and converts any escaping exception to an error outcome:
/// Expected<R> for value-returning fn, Status for void fn.
template <typename F>
[[nodiscard]] auto capture(F&& fn) {
  using R = std::invoke_result_t<F>;
  if constexpr (std::is_void_v<R>) {
    try {
      std::forward<F>(fn)();
      return Status::ok();
    } catch (...) {
      return status_from_current_exception();
    }
  } else {
    try {
      return Expected<R>(std::forward<F>(fn)());
    } catch (...) {
      return Expected<R>(status_from_current_exception());
    }
  }
}

}  // namespace wharf

#endif  // WHARF_UTIL_STATUS_HPP
