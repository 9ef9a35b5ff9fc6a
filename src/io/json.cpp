#include "io/json.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "search/priority_search.hpp"
#include "util/expect.hpp"

namespace wharf::io {

void JsonWriter::prefix() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) os_ << ',';
    needs_comma_.back() = true;
  }
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::write_string(const std::string& s) { os_ << '"' << json_escape(s) << '"'; }

void JsonWriter::begin_object() {
  prefix();
  os_ << '{';
  needs_comma_.push_back(false);
}

void JsonWriter::end_object() {
  WHARF_ASSERT(!needs_comma_.empty());
  needs_comma_.pop_back();
  os_ << '}';
}

void JsonWriter::begin_array() {
  prefix();
  os_ << '[';
  needs_comma_.push_back(false);
}

void JsonWriter::end_array() {
  WHARF_ASSERT(!needs_comma_.empty());
  needs_comma_.pop_back();
  os_ << ']';
}

void JsonWriter::key(const std::string& k) {
  prefix();
  write_string(k);
  os_ << ':';
  pending_key_ = true;
}

void JsonWriter::value(const std::string& v) {
  prefix();
  write_string(v);
}

void JsonWriter::value(const char* v) { value(std::string(v)); }

void JsonWriter::value(long long v) {
  prefix();
  os_ << v;
}

void JsonWriter::value(double v) {
  prefix();
  if (std::isfinite(v)) {
    os_ << v;
  } else {
    os_ << "null";
  }
}

void JsonWriter::value(bool v) {
  prefix();
  os_ << (v ? "true" : "false");
}

void JsonWriter::null() {
  prefix();
  os_ << "null";
}

void JsonWriter::raw(const std::string& json) {
  prefix();
  os_ << json;
}

std::string to_json(const LatencyResult& result) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("bounded");
  w.value(result.bounded);
  if (!result.bounded) {
    w.key("reason");
    w.value(result.reason);
  } else {
    w.key("K");
    w.value(result.K);
    w.key("wcl");
    w.value(result.wcl);
    w.key("worst_q");
    w.value(result.worst_q);
    w.key("busy_times");
    w.begin_array();
    for (Time b : result.busy_times) w.value(b);
    w.end_array();
    if (result.misses_per_window.has_value()) {
      w.key("misses_per_window");
      w.value(*result.misses_per_window);
      w.key("schedulable");
      w.value(result.schedulable);
    }
  }
  w.end_object();
  return os.str();
}

std::string to_json(const DmmResult& result) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("k");
  w.value(result.k);
  w.key("dmm");
  w.value(result.dmm);
  w.key("status");
  w.value(to_string(result.status));
  if (!result.reason.empty()) {
    w.key("reason");
    w.value(result.reason);
  }
  w.key("wcl");
  w.value(result.wcl);
  w.key("K");
  w.value(result.K);
  w.key("n_b");
  w.value(result.n_b);
  w.key("slack");
  w.value(result.slack);
  w.key("omegas");
  w.begin_array();
  for (Count o : result.omegas) w.value(o);
  w.end_array();
  w.key("unschedulable_combinations");
  w.value(static_cast<std::int64_t>(result.unschedulable_count));
  w.key("packing_optimum");
  w.value(result.packing_optimum);
  w.key("solver_nodes");
  w.value(result.solver_nodes);
  w.end_object();
  return os.str();
}

void write_objective(JsonWriter& w, const search::Objective& objective,
                     const std::vector<Priority>* priorities) {
  w.begin_object();
  w.key("chains_missing");
  w.value(objective.chains_missing);
  w.key("total_dmm");
  w.value(objective.total_dmm);
  w.key("total_wcl");
  w.value(objective.total_wcl);
  if (priorities != nullptr) {
    w.key("priorities");
    w.begin_array();
    for (const Priority p : *priorities) w.value(static_cast<long long>(p));
    w.end_array();
  }
  w.end_object();
}

}  // namespace wharf::io
