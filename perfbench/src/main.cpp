// perfbench: wharf's end-to-end benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --self-test
//   perfbench --setup-only --workload analyze_cold|search_warm --seed N
//
// Runs one seeded workload closed-loop for S seconds and prints, as the
// last line of stdout, one JSON object {"correct","attempted","failed",
// "metrics"}: the end-to-end metrics when untraced, the per-layer
// metrics of the traced run otherwise.  --setup-only times one set-up
// and prints its seconds: analyze_cold and search_warm run it in child
// processes.  See perfbench/README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hpp"
#include "inputs.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload analyze_cold|search_warm|sweep_saturated"
               " --seed N --seconds S --trace 0|1\n"
            << "       perfbench --self-test\n"
            << "       perfbench --setup-only --workload analyze_cold|search_warm --seed N\n";
  std::exit(1);
}

void print_result(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::snprintf(number, sizeof number, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + number + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.program = argv[0];
  bool have_workload = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return run_self_tests();
    if (flag == "--setup-only") {
      setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (setup_only) {
    double seconds = 0;
    if (args.workload == "analyze_cold") {
      seconds = time_analyze_cold_setup(args);
    } else if (args.workload == "search_warm") {
      seconds = time_search_warm_setup(args);
    } else {
      usage("--setup-only runs analyze_cold or search_warm");
    }
    std::printf("%.17g\n", seconds);
    return 0;
  }
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
  }

  std::cerr << "perfbench: " << args.workload << " seed " << args.seed << " input digest "
            << std::hex << input_digest(args.workload, args.seed) << std::dec << "\n";
  Result result;
  if (args.workload == "analyze_cold") {
    result = run_analyze_cold(args);
  } else if (args.workload == "search_warm") {
    result = run_search_warm(args);
  } else if (args.workload == "sweep_saturated") {
    result = run_sweep_saturated(args);
  } else {
    usage("unknown workload " + args.workload);
  }
  if (result.attempted < 1) setup_failure("no operation completed");
  print_result(result);
  return 0;
}
