/// \file first_error.hpp
/// First-exception collector for fork-join workers: each worker wraps
/// its body in capture(), the fork-join caller rethrows after the join.
/// parallel_for_index uses it instead of an ad-hoc
/// `std::exception_ptr + mutex` pair, with the locking discipline
/// annotated (util/mutex.hpp) instead of implicit.

#ifndef WHARF_UTIL_FIRST_ERROR_HPP
#define WHARF_UTIL_FIRST_ERROR_HPP

#include <exception>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace wharf::util {

/// Collects the first exception thrown across concurrent workers.
/// Thread-safe: capture() may race from any number of threads;
/// rethrow_if_set() is meant for the caller after every worker joined
/// (it still locks, so a stray concurrent call is safe, just pointless).
class FirstError {
 public:
  /// Runs `body()`; a thrown exception is recorded iff it is the first
  /// (later ones are dropped — one failure fails the whole fork-join).
  template <typename Body>
  void capture(Body&& body) WHARF_EXCLUDES(mutex_) {
    try {
      body();
    } catch (...) {
      const MutexLock guard(mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }

  /// Rethrows the recorded exception, if any.
  void rethrow_if_set() WHARF_EXCLUDES(mutex_) {
    std::exception_ptr error;
    {
      const MutexLock guard(mutex_);
      error = error_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  Mutex mutex_;
  std::exception_ptr error_ WHARF_GUARDED_BY(mutex_);
};

}  // namespace wharf::util

#endif  // WHARF_UTIL_FIRST_ERROR_HPP
