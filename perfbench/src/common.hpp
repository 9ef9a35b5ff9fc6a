// Shared plumbing of the perfbench program: run arguments, the result
// record every workload fills, op timing and summary statistics, and the
// in-memory span recorder of the traced run (written out as Chrome
// trace-event JSON, which Perfetto and chrome://tracing open).

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <deque>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since an arbitrary process-wide origin (steady clock).
[[nodiscard]] std::int64_t now_ns();

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string program;  ///< how this program was started (argv[0])
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run reports: correctness, op accounting, metrics.
struct Result {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  /// Marks the run incorrect and logs why (stderr, one line).
  void mismatch(const std::string& what);
};

/// Ends a run whose set-up is broken: one line on stderr, exit code 2,
/// no result line.
[[noreturn]] void setup_failure(const std::string& reason);

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process in MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// FNV-1a, chained through `h`: the input digests of the self-test.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);

/// Runs `setup` 11 times and returns the median wall time in seconds.
/// Each call rebuilds the workload state from scratch; the state of the
/// last call is the one measured.  `teardown` (untimed) runs before
/// every call but the first and frees the previous call's state, so
/// destructors are not timed.
[[nodiscard]] double timed_setup(const std::function<void()>& setup,
                                 const std::function<void()>& teardown = {});

/// Times one set-up of `args.workload` in a child process (this program,
/// run with --setup-only) and returns it in seconds.  The child starts
/// fresh and exits after the set-up, so the caller keeps its own state
/// and its peak RSS.  Ends the run as a broken set-up when the child
/// cannot be started or does not report.
[[nodiscard]] double timed_setup_in_child(const Args& args);

/// How often an untraced run of analyze_cold or search_warm times one
/// more set-up in a child, between two ops and outside their time;
/// setup_s is the median of the run's set-ups.  A set-up of 0.1-0.3 s
/// samples the host's speed, which shifts on a scale of seconds: 11
/// set-ups timed up front moved their median by a third between runs.
/// Spread over the loop like the ops, the set-ups repeat as the ops do.
inline constexpr std::int64_t kResetupNs = 1'000'000'000;

/// "engine.store.<stage>.<counter>" for artifact stage index `stage`.
[[nodiscard]] std::string store_metric(std::size_t stage, const char* counter);

/// One timed operation of the closed loop.
struct Op {
  double ms = 0;
  bool ok = true;
  bool traced = false;
};

/// Counts `ops` into result.attempted and result.failed; a failed op
/// makes the run incorrect.  Call once the checks have marked the ops.
void account_ops(Result& result, const std::vector<Op>& ops);

/// Adds the end-to-end metrics every workload reports: ops_per_s,
/// op_p50_ms, op_p90_ms, candidates_per_s, setup_s, peak_rss_mb.
/// `busy_s` is the measured wall time of the loop; `candidates` the
/// system configurations analysed in it.
void add_end_to_end(Result& result, const std::vector<Op>& ops, double busy_s,
                    long long candidates, double setup_s, double rss_mb);

/// Alternation of traced and untraced blocks in a traced run: ops in
/// traced blocks record spans, the others do not, so the tracing
/// overhead is measured on the same warm state.
class TraceSchedule {
 public:
  TraceSchedule(bool trace_run, std::int64_t block_ns = 250'000'000)
      : trace_run_(trace_run), block_ns_(block_ns), start_(now_ns()) {}
  /// Whether an op starting now is traced.
  [[nodiscard]] bool traced_now() const {
    return trace_run_ && ((now_ns() - start_) / block_ns_) % 2 == 1;
  }
  /// Wall seconds from the start to `end_ns` that fell in traced
  /// (`traced`) or untraced blocks.
  [[nodiscard]] double seconds_in(bool traced, std::int64_t end_ns) const;

 private:
  bool trace_run_;
  std::int64_t block_ns_;
  std::int64_t start_;
};

/// One recorded span: a layer call (or a whole op) inside one op.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for an op span
  long long op = 0;
  int tid = 0;
  [[nodiscard]] double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// In-memory span recorder (single-threaded: one per recording thread).
class Tracer {
 public:
  explicit Tracer(int tid = 0) : tid_(tid) {}
  /// Opens a span and returns its index.
  int begin(const char* name, long long op, int parent = -1);
  void end(int index) { spans_[static_cast<std::size_t>(index)].end_ns = now_ns(); }
  /// Records an already-measured interval.
  int record(const char* name, long long op, std::int64_t start_ns, std::int64_t end_ns,
             int parent = -1);
  [[nodiscard]] const std::deque<Span>& spans() const { return spans_; }

  /// Per op, the summed duration (us) of spans named `name`; ops that
  /// have an op span `op_name` but no such span count 0.
  [[nodiscard]] std::vector<double> per_op_us(const char* op_name, const char* name) const;
  /// Durations (us) of every span named `name`.
  [[nodiscard]] std::vector<double> each_us(const char* name) const;
  /// Share (0..1) of each `op_name` span covered by its direct children.
  [[nodiscard]] std::vector<double> coverage(const char* op_name) const;

  /// Writes the first 200,000 spans as Chrome trace-event JSON.
  void write_chrome_trace(const std::string& path) const;

 private:
  int tid_ = 0;
  std::deque<Span> spans_;  // a deque: growing never copies recorded spans
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, long long op, int parent = -1)
      : tracer_(tracer), index_(tracer.begin(name, op, parent)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

/// The trace metrics every traced run reports: trace.ops, the traced
/// and untraced op rates, the overhead, and the span coverage of ops.
void add_trace_summary(Result& result, const std::vector<Op>& ops, double untraced_s,
                       double traced_s, const Tracer& tracer, const char* op_name);

/// Where a traced run writes its Chrome trace (inside the working
/// directory).
[[nodiscard]] std::string trace_path(const Args& args);

/// Every per-layer metric name with its unit, in report order: a traced
/// run reports all of them, 0 for layers its workload does not enter.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue();

/// Fills `result` with every catalogue metric: the values in `values`,
/// 0 for the rest.  Unknown names in `values` are a programming error.
void add_per_layer(Result& result, const std::map<std::string, double>& values);

// Workload entry points (one translation unit each).
[[nodiscard]] Result run_analyze_cold(const Args& args);
[[nodiscard]] Result run_search_warm(const Args& args);
[[nodiscard]] Result run_sweep_saturated(const Args& args);

/// One set-up of the workload, timed in seconds (perfbench --setup-only,
/// run in a child by timed_setup_in_child).
[[nodiscard]] double time_analyze_cold_setup(const Args& args);
[[nodiscard]] double time_search_warm_setup(const Args& args);

/// The benchmark's own self-tests; returns the process exit code.
[[nodiscard]] int run_self_tests();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_HPP
