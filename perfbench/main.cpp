// perfbench_runner: runs one workload of the end-to-end benchmark in
// this process and prints its result as the last line of stdout.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans PATH]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics the workload exercises and writes the recorded spans
// to PATH (run.py completes the list from BENCHMARK.json). A run whose
// outputs do not match the reference exits 1 and prints no numbers; a
// run refused by the guards below exits 3.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "exec/topology.hpp"
#include "geom/kernels.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "csv-gau-1m|panel-d10-200k|svc-closed-4k --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n",
               message);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return options;
}

/// Refuses to measure a program other than the default optimized one.
void guard() {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to time a build without NDEBUG\n");
  std::exit(3);
#endif
  for (const char* name :
       {"KC_FORCE_SCALAR", "KC_FORCE_NO_PRUNE", "KC_FAULT_PLAN", "KC_PIN"}) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: %s is set; it changes the measured program, "
                   "unset it\n",
                   name);
      std::exit(3);
    }
  }
}

std::string number(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  if (ec != std::errc{}) return "null";
  return std::string(buffer, end);
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The facts every result is recorded with.
std::string environment_json(const Options& options) {
  return std::string("{\"workload\": ") + quoted(options.workload) +
         ", \"seed\": " + std::to_string(options.seed) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd\": " +
         quoted(std::string(kc::simd::to_string(kc::simd::active_level()))) +
         ", \"topology_restricted\": " +
         (kc::exec::topology().restricted ? "true" : "false") +
         ", \"compiler\": " + quoted(__VERSION__) + "}";
}

void write_spans(const Options& options, const Result& result) {
  if (options.spans_path.empty()) return;
  std::ofstream out(options.spans_path);
  out << "{\"environment\": " << environment_json(options) << "}\n";
  for (const perfbench::Span& s : result.spans) {
    out << "{\"name\": " << quoted(s.name) << ", \"op\": " << s.op
        << ", \"parent\": " << s.parent << ", \"start\": " << number(s.start)
        << ", \"end\": " << number(s.end)
        << ", \"derived\": " << (s.derived ? "true" : "false") << "}\n";
  }
  if (!out) {
    throw std::runtime_error("cannot write spans to " + options.spans_path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  guard();
  try {
    Result result;
    if (options.workload == "csv-gau-1m") {
      result = perfbench::run_csv(options);
    } else if (options.workload == "panel-d10-200k") {
      result = perfbench::run_panel(options);
    } else if (options.workload == "svc-closed-4k") {
      result = perfbench::run_svc(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
    if (!result.correct) {
      std::fprintf(stderr, "perfbench: output check failed\n");
      return 1;
    }
    const std::vector<Metric>& metrics = result.metrics;
    if (options.trace) write_spans(options, result);

    std::printf("environment: %s\n", environment_json(options).c_str());
    std::string line = "{\"correct\": true, \"attempted\": " +
                       std::to_string(result.attempted) +
                       ", \"failed\": " + std::to_string(result.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i != 0) line += ", ";
      line += quoted(metrics[i].name) + ": {\"value\": " +
              number(metrics[i].value) + ", \"unit\": " +
              quoted(metrics[i].unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
