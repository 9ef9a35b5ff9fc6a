#include "common.hpp"

#include "engine/artifact_store.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <unordered_map>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Result::mismatch(const std::string& what) {
  correct = false;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

void setup_failure(const std::string& reason) {
  std::cerr << "perfbench: set-up failed: " << reason << "\n";
  std::exit(2);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

double timed_setup(const std::function<void()>& setup, const std::function<void()>& teardown) {
  constexpr int kRepeats = 11;
  std::vector<double> times;
  for (int i = 0; i < kRepeats; ++i) {
    if (i > 0 && teardown) teardown();
    const std::int64_t start = now_ns();
    setup();
    times.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  return median(times);
}

double timed_setup_in_child(const Args& args) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) setup_failure("cannot open a pipe to a set-up child");
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  ::posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  const std::string seed = std::to_string(args.seed);
  const char* argv[] = {args.program.c_str(), "--setup-only", "--workload",
                        args.workload.c_str(), "--seed", seed.c_str(), nullptr};
  pid_t pid = 0;
  const int spawned = ::posix_spawn(&pid, args.program.c_str(), &actions, nullptr,
                                    const_cast<char* const*>(argv), environ);
  ::posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (spawned != 0) setup_failure("cannot start a set-up child " + args.program);
  std::string out;
  char buffer[256];
  for (;;) {
    const ssize_t got = ::read(fds[0], buffer, sizeof buffer);
    if (got > 0) {
      out.append(buffer, static_cast<std::size_t>(got));
    } else if (got == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  char* end = nullptr;
  const double seconds = std::strtod(out.c_str(), &end);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || end == out.c_str() || !(seconds > 0)) {
    setup_failure("a set-up child did not report its time");
  }
  return seconds;
}

void account_ops(Result& result, const std::vector<Op>& ops) {
  for (const Op& op : ops) {
    ++result.attempted;
    if (!op.ok) ++result.failed;
  }
  result.correct = result.correct && result.failed == 0;
}

void add_end_to_end(Result& result, const std::vector<Op>& ops, double busy_s,
                    long long candidates, double setup_s, double rss_mb) {
  std::vector<double> ms;
  ms.reserve(ops.size());
  for (const Op& op : ops) ms.push_back(op.ms);
  result.add("ops_per_s", static_cast<double>(ops.size()) / busy_s, "1/s");
  result.add("op_p50_ms", quantile(ms, 0.50), "ms");
  result.add("op_p90_ms", quantile(ms, 0.90), "ms");
  result.add("candidates_per_s", static_cast<double>(candidates) / busy_s, "1/s");
  result.add("setup_s", setup_s, "s");
  result.add("peak_rss_mb", rss_mb, "MiB");
}

double TraceSchedule::seconds_in(bool traced, std::int64_t end_ns) const {
  const std::int64_t elapsed = end_ns - start_;
  if (!trace_run_) return traced ? 0 : static_cast<double>(elapsed) / 1e9;
  const std::int64_t full = elapsed / block_ns_;  // blocks 0, 2, ... are untraced
  const std::int64_t partial = elapsed % block_ns_;
  std::int64_t ns = (traced ? full / 2 : full - full / 2) * block_ns_;
  if ((full % 2 == 1) == traced) ns += partial;
  return static_cast<double>(ns) / 1e9;
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

int Tracer::begin(const char* name, long long op, int parent) {
  const std::int64_t t = now_ns();
  return record(name, op, t, t, parent);
}

int Tracer::record(const char* name, long long op, std::int64_t start_ns, std::int64_t end_ns,
                   int parent) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, op, tid_});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::per_op_us(const char* op_name, const char* name) const {
  std::unordered_map<long long, double> sums;
  std::vector<long long> order;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == op_name) {
      if (sums.emplace(s.op, 0.0).second) order.push_back(s.op);
    }
  }
  for (const Span& s : spans_) {
    if (std::string_view(s.name) != name) continue;
    const auto it = sums.find(s.op);
    if (it != sums.end()) it->second += s.us();
  }
  std::vector<double> out;
  out.reserve(order.size());
  for (const long long op : order) out.push_back(sums[op]);
  return out;
}

std::vector<double> Tracer::each_us(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) out.push_back(s.us());
  }
  return out;
}

std::vector<double> Tracer::coverage(const char* op_name) const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.us();
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (std::string_view(s.name) != op_name || s.end_ns <= s.start_ns) continue;
    out.push_back(std::min(1.0, covered[i] / s.us()));
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  constexpr std::size_t kMaxSpans = 200'000;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write trace " << path << "\n";
    return;
  }
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const std::size_t n = std::min(kMaxSpans, spans_.size());
  char buffer[512];
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::snprintf(buffer, sizeof buffer,
                  "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<int>(std::string_view(s.name).find('.')), s.name, s.tid,
                  static_cast<double>(s.start_ns - origin) / 1e3, s.us(), s.op, s.parent);
    out << buffer;
  }
  out << "]}\n";
}

void add_trace_summary(Result& result, const std::vector<Op>& ops, double untraced_s,
                       double traced_s, const Tracer& tracer, const char* op_name) {
  long long traced = 0;
  long long untraced = 0;
  for (const Op& op : ops) (op.traced ? traced : untraced) += 1;
  const double traced_rate = traced_s > 0 ? static_cast<double>(traced) / traced_s : 0;
  const double untraced_rate = untraced_s > 0 ? static_cast<double>(untraced) / untraced_s : 0;
  result.add("trace.ops", static_cast<double>(traced), "count");
  result.add("trace.untraced_ops_per_s", untraced_rate, "1/s");
  result.add("trace.traced_ops_per_s", traced_rate, "1/s");
  result.add("trace.overhead_pct",
             untraced_rate > 0 ? 100.0 * (untraced_rate - traced_rate) / untraced_rate : 0, "%");
  const std::vector<double> cover = tracer.coverage(op_name);
  result.add("trace.span_coverage_p50", 100.0 * median(cover), "%");
  result.add("trace.span_coverage_p1", 100.0 * quantile(cover, 0.01), "%");
  result.add("trace.span_coverage_min",
             cover.empty() ? 0 : 100.0 * *std::min_element(cover.begin(), cover.end()), "%");
}

std::string trace_path(const Args& args) {
  return ".bench_out/" + args.workload + "-seed" + std::to_string(args.seed) + ".trace.json";
}

std::string store_metric(std::size_t stage, const char* counter) {
  return std::string("engine.store.") + wharf::to_string(static_cast<wharf::ArtifactStage>(stage)) +
         "." + counter;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> catalogue = [] {
    std::vector<std::pair<std::string, std::string>> c;
    // analyze_cold
    c.emplace_back("engine.run_us", "us");
    c.emplace_back("engine.open_session_us", "us");
    c.emplace_back("core.latency_us", "us");
    c.emplace_back("core.dmm_us", "us");
    c.emplace_back("io.serialize_us", "us");
    for (std::size_t s = 0; s < wharf::kArtifactStageCount; ++s) {
      c.emplace_back(store_metric(s, "lookups"), "count/op");
      c.emplace_back(store_metric(s, "misses"), "count/op");
    }
    c.emplace_back("core.unbounded_results", "count");
    // search_warm
    c.emplace_back("search.step_us", "us");
    c.emplace_back("search.candidates_per_step", "count/op");
    c.emplace_back("engine.speculate_us", "us");
    c.emplace_back("engine.candidate_query_us", "us");
    for (std::size_t s = 0; s < wharf::kArtifactStageCount; ++s) {
      c.emplace_back(store_metric(s, "hits"), "count/op");
      c.emplace_back(store_metric(s, "shared"), "count/op");
    }
    c.emplace_back("engine.store_lookups", "count/op");
    c.emplace_back("engine.store_hit_ratio", "ratio");
    c.emplace_back("engine.slice_hits", "count/op");
    c.emplace_back("engine.slice_misses", "count/op");
    c.emplace_back("engine.slice_reuse", "ratio");
    c.emplace_back("engine.evictions", "count/op");
    c.emplace_back("engine.resident_bytes", "bytes");
    // sweep_saturated
    c.emplace_back("dist.units", "count/op");
    c.emplace_back("dist.stolen_units", "count/op");
    c.emplace_back("dist.reissued_units", "count/op");
    c.emplace_back("dist.duplicate_results", "count/op");
    c.emplace_back("dist.worker_deaths", "count");
    c.emplace_back("dist.useful_ratio", "ratio");
    c.emplace_back("search.evaluate_many_ms", "ms");
    c.emplace_back("dist.overhead_ms", "ms");
    return c;
  }();
  return catalogue;
}

void add_per_layer(Result& result, const std::map<std::string, double>& values) {
  std::size_t used = 0;
  for (const auto& [name, unit] : per_layer_catalogue()) {
    const auto it = values.find(name);
    if (it != values.end()) ++used;
    result.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  if (used != values.size()) {
    for (const auto& [name, value] : values) {
      bool known = false;
      for (const auto& entry : per_layer_catalogue()) known = known || entry.first == name;
      if (!known) setup_failure("metric '" + name + "' is missing from the catalogue");
    }
  }
}

}  // namespace perfbench
