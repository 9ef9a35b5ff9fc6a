/// \file json.hpp
/// Minimal streaming JSON writer (no external dependencies) plus
/// converters for the analysis result types.  Used by benchmarks and
/// examples to emit machine-readable results next to the ASCII tables.

#ifndef WHARF_IO_JSON_HPP
#define WHARF_IO_JSON_HPP

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/busy_window.hpp"
#include "core/twca.hpp"

namespace wharf::search {
struct Objective;
}  // namespace wharf::search

namespace wharf::io {

/// Streaming JSON writer with automatic comma placement and string
/// escaping.  Usage:
///   JsonWriter w(os);
///   w.begin_object();
///   w.key("name"); w.value("sigma_c");
///   w.key("values"); w.begin_array(); w.value(1); w.value(2); w.end_array();
///   w.end_object();
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(const std::string& k);

  void value(const std::string& v);
  void value(const char* v);
  void value(long long v);
  void value(long v) { value(static_cast<long long>(v)); }
  void value(int v) { value(static_cast<long long>(v)); }
  void value(double v);
  void value(bool v);
  void null();

  /// Splices a pre-serialized JSON fragment in value position (comma
  /// placement still handled).  The caller guarantees well-formedness.
  void raw(const std::string& json);

 private:
  void prefix();
  void write_string(const std::string& s);

  std::ostream& os_;
  /// One frame per open container: true once a first element was emitted.
  std::vector<bool> needs_comma_;
  bool pending_key_ = false;
};

/// Escapes `text` as the body of a JSON string literal (no surrounding
/// quotes) — the exact escaping JsonWriter applies, control characters
/// included.  For hand-framed protocol lines (tests, benches, clients).
[[nodiscard]] std::string json_escape(const std::string& text);

/// Serializes a LatencyResult as a JSON object.
[[nodiscard]] std::string to_json(const LatencyResult& result);

/// Serializes a DmmResult as a JSON object.
[[nodiscard]] std::string to_json(const DmmResult& result);

/// Writes a search objective as a JSON object {chains_missing,
/// total_dmm, total_wcl}, followed inside it by a "priorities" array
/// when `priorities` is given: the one shape of `search --json`,
/// `sweep --json` and the serve protocol's evaluate responses.
void write_objective(JsonWriter& w, const search::Objective& objective,
                     const std::vector<Priority>* priorities = nullptr);

}  // namespace wharf::io

#endif  // WHARF_IO_JSON_HPP
