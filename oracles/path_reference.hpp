/// \file path_reference.hpp
/// Declarations of the standalone path analyzer in path_reference.cpp.
/// It lives outside libwharf in the `wharf_oracles` target, which only
/// the tests and benches link.

#ifndef WHARF_ORACLES_PATH_REFERENCE_HPP
#define WHARF_ORACLES_PATH_REFERENCE_HPP

#include "core/path_analysis.hpp"

namespace wharf {

/// The independent check of the Engine's path queries: the same
/// composition (path_latency()/path_dmm()) over per-chain results from
/// a fresh TwcaAnalyzer per budgeted variant, with no artifact store.
/// engine_test and path_test compare PathLatencyQuery/PathDmmQuery
/// answers against it field for field.
namespace reference {

/// Path analyses on top of a system (validates the path: >= 1 chain,
/// distinct indices, no overload chains on the path).
class PathAnalyzer {
 public:
  /// Analyzes paths of `system` under `options`.
  explicit PathAnalyzer(System system, TwcaOptions options = {});

  /// The analyzed system.
  [[nodiscard]] const System& system() const { return system_; }

  /// WCL_path <= Σ WCL_i (unbounded when any chain is).
  [[nodiscard]] PathLatencyResult latency(const PathSpec& path) const;

  /// dmm_path(k) <= min(Σ dmm_i^{D_i}(k), k); requires path.deadline.
  [[nodiscard]] PathDmmResult dmm(const PathSpec& path, Count k) const;

 private:
  System system_;
  TwcaOptions options_;
};

}  // namespace reference

}  // namespace wharf

#endif  // WHARF_ORACLES_PATH_REFERENCE_HPP
