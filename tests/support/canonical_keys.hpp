/// \file canonical_keys.hpp
/// The canonical textual encodings of every stage key's read set — the
/// oracle the 128-bit structural keys of core/model_slice.hpp are
/// audited against (tests/property_test.cpp): for any two (system,
/// target) pairs, the digests must be equal exactly when these strings
/// are.  Each encoder serializes, as text, exactly the fields the
/// matching digest reads.  Header-only; test-only.

#ifndef WHARF_TESTS_SUPPORT_CANONICAL_KEYS_HPP
#define WHARF_TESTS_SUPPORT_CANONICAL_KEYS_HPP

#include <algorithm>
#include <string>

#include "core/segments.hpp"
#include "core/system.hpp"
#include "core/twca.hpp"

namespace wharf::testsupport::canonical {

inline void append_num(std::string& out, long long v) { out += std::to_string(v); }

/// Full chain content (name, kind, arrival curve, deadline, overload
/// flag, per-task priorities and WCETs).
inline std::string chain_content(const Chain& chain) {
  std::string out = "chain{" + chain.name() + ';';
  out += chain.is_synchronous() ? 'S' : 'A';
  out += ';' + chain.arrival().describe() + ';';
  if (chain.deadline().has_value()) {
    append_num(out, *chain.deadline());
  } else {
    out += '-';
  }
  out += ';';
  out += chain.is_overload() ? 'O' : '.';
  out += ";[";
  for (const Task& task : chain.tasks()) {
    append_num(out, task.priority);
    out += ':';
    append_num(out, task.wcet);
    out += ',';
  }
  return out + "]}";
}

/// Interferer `a` w.r.t. target `b` as Defs 2–5 read it.
inline std::string interference_slice(const Chain& a, const Chain& b) {
  std::string out = "ifc{" + a.name() + ';';
  out += a.is_synchronous() ? 'S' : 'A';
  out += ";[";
  for (const Task& task : a.tasks()) {
    append_num(out, task.wcet);
    out += ':';
    out += task.priority > b.min_priority() ? '1' : '0';
    out += ',';
  }
  return out + "]}";
}

/// Interferer `a` w.r.t. target `b` as the busy-window fixed point
/// reads it.
inline std::string busy_interference_slice(const Chain& a, const Chain& b) {
  std::string out = "bwi{" + a.name() + ';';
  out += a.is_synchronous() ? 'S' : 'A';
  out += ';' + a.arrival().describe() + ";C=";
  append_num(out, a.total_wcet());
  out += ';';
  if (!is_deferred(a, b)) return out + "arb}";
  out += "def;hdr=";
  append_num(out, cost_of(a, header_segment_wrt(a, b)));
  out += ";segs=[";
  Time total = 0;
  Time critical = 0;
  for (const Segment& s : segments_wrt(a, b)) {
    append_num(out, s.cost);
    out += s.wraps ? 'w' : '.';
    out += ',';
    total = sat_add(total, s.cost);
    critical = std::max(critical, s.cost);
  }
  out += "];sum=";
  append_num(out, total);
  out += ";crit=";
  append_num(out, critical);
  return out + '}';
}

/// Overload chain `a` w.r.t. target `b` as Defs 8/9 read it.
inline std::string overload_slice(const Chain& a, const Chain& b) {
  std::string out = "ovl{" + a.name() + ';' + a.arrival().describe() + ";active=[";
  for (const ActiveSegment& s : active_segments_wrt(a, b)) {
    append_num(out, s.segment_index);
    out += ':';
    append_num(out, s.cost);
    out += ',';
  }
  return out + "]}";
}

/// Interference-context key text of `target` (positions pinned).
inline std::string interference_key(const System& system, int target) {
  std::string out = "ifc|t=" + std::to_string(target) + ';' + chain_content(system.chain(target));
  for (int a = 0; a < system.size(); ++a) {
    if (a == target) continue;
    out += '@' + std::to_string(a) + interference_slice(system.chain(a), system.chain(target));
  }
  return out;
}

/// Busy-window key text of `target`.
inline std::string busy_window_key(const System& system, int target,
                                   const AnalysisOptions& options, bool without_overload) {
  std::string out = without_overload ? "bw-noov|ao{" : "bw|ao{";
  append_num(out, static_cast<long long>(options.max_busy_windows));
  out += ';';
  append_num(out, options.max_fixed_point_iterations);
  out += ';';
  append_num(out, options.divergence_guard);
  out += ';';
  append_num(out, options.naive_arbitrary);
  out += '}' + chain_content(system.chain(target));
  for (int a = 0; a < system.size(); ++a) {
    if (a == target || (without_overload && system.chain(a).is_overload())) continue;
    out += busy_interference_slice(system.chain(a), system.chain(target));
  }
  return out;
}

/// Overload-artifact key text of `target` (positions pinned).
inline std::string overload_key(const System& system, int target, const TwcaOptions& options) {
  std::string out = "ov|t=" + std::to_string(target) + ";co{";
  append_num(out, static_cast<int>(options.criterion));
  out += ';';
  append_num(out, static_cast<long long>(options.max_combinations));
  out += '}' + canonical::busy_window_key(system, target, options.analysis, false);
  for (const int a : system.overload_indices()) {
    if (a == target) continue;
    out += '@' + std::to_string(a) + overload_slice(system.chain(a), system.chain(target));
  }
  return out;
}

/// dmm(k) key text of `target`.
inline std::string dmm_key(const System& system, int target, Count k,
                           const TwcaOptions& options) {
  std::string out = "dmm|k=";
  append_num(out, k);
  out += ";cap=";
  append_num(out, options.cap_at_k);
  return out + ';' + canonical::overload_key(system, target, options);
}

}  // namespace wharf::testsupport::canonical

#endif  // WHARF_TESTS_SUPPORT_CANONICAL_KEYS_HPP
