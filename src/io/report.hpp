/// \file report.hpp
/// Human-readable full-system analysis reports: the one-call overview a
/// downstream user wants after loading a system description.

#ifndef WHARF_IO_REPORT_HPP
#define WHARF_IO_REPORT_HPP

#include <string>

#include "engine/engine.hpp"

namespace wharf::io {

/// Renders the complete analysis report of an Engine response (the
/// answers of an AnalysisRequest::standard() run): per non-overload
/// chain the latency with and without overload, the schedulability
/// verdict and dmm(k) for each answered horizon (default {10}); then the
/// overload chain inventory and a one-line artifact-cache summary
/// (render_diagnostics).  Queries that failed render as "error" cells.
[[nodiscard]] std::string render_report(const System& system, const AnalysisReport& report);

/// One-line per-stage artifact-cache summary of a served request, e.g.
/// "artifact cache: interference 0/4 busy_window 0/8 ... (hits/lookups)".
/// Empty when the request resolved no artifacts.
[[nodiscard]] std::string render_diagnostics(const ReportDiagnostics& diagnostics);

}  // namespace wharf::io

#endif  // WHARF_IO_REPORT_HPP
