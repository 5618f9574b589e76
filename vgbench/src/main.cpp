// vgbench — VibGuard's end-to-end benchmark program.
//
//   vgbench --workload <score_warm|experiment_fig9|serve_closed>
//           --seed <n> --seconds <s> --trace <0|1>
//           [--trace-out FILE] [--expect-eer X] [--commit ID]
//
// Prints a provenance line, then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when --trace 0, the per-layer metrics when --trace 1. Exits 1
// when any correctness check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "dsp/simd.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace vgbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "vgbench: %s\nusage: vgbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--expect-eer X] "
               "[--commit ID]\n",
               why);
  return 2;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_provenance(const Options& opt) {
  const char* simd_env = std::getenv("VIBGUARD_SIMD");
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"build_type\": \"%s\", "
      "\"simd\": \"%s\", \"simd_env\": \"%s\", \"nproc\": %u, "
      "\"cpu\": \"%s\", \"commit\": \"%s\"}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, VGBENCH_BUILD_TYPE,
      vibguard::dsp::simd::level_name(vibguard::dsp::simd::active_level()),
      simd_env != nullptr ? json_escape(simd_env).c_str() : "",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      json_escape(opt.commit).c_str());
}

/// Prints each per-layer metric beside the end-to-end metric it should
/// move, plus the self time of every span name.
void print_summary(const Tracer& tracer, const Report& report) {
  std::fprintf(stderr, "\n[vgbench] span self times (ms, all spans)\n");
  for (const auto& [name, t] : tracer.totals()) {
    std::fprintf(stderr, "  %-26s n=%-8zu self %12.3f  total %12.3f\n",
                 name.c_str(), t.count, ns_to_ms(static_cast<double>(t.self)),
                 ns_to_ms(static_cast<double>(t.total)));
  }
  std::fprintf(stderr, "\n[vgbench] per-layer metrics -> what they move\n");
  for (const MetricSpec& m : per_layer_metrics()) {
    const auto it = report.values.find(m.name);
    const double v = it != report.values.end() ? it->second : 0.0;
    std::fprintf(stderr, "  %-30s %14.6g %-6s -> %s\n", m.name, v, m.unit,
                 it != report.values.end() ? m.moves : "(not exercised)");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && opt.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else if (arg == "--expect-eer") {
      opt.expected_eer = std::strtod(value.c_str(), &end);
      opt.has_expected_eer = end != value.c_str() && *end == '\0';
      if (!opt.has_expected_eer) return usage("bad --expect-eer");
    } else if (arg == "--commit") {
      opt.commit = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  void (*run)(const Options&, Report&, Tracer&) = nullptr;
  if (opt.workload == "score_warm") run = run_score_warm;
  if (opt.workload == "experiment_fig9") run = run_experiment_fig9;
  if (opt.workload == "serve_closed") run = run_serve_closed;
  if (run == nullptr) return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  print_provenance(opt);
  std::fflush(stdout);
  Tracer tracer(opt.trace);
  Report report;
  try {
    run(opt, report, tracer);
  } catch (const std::exception& e) {
    report.errors.push_back(std::string("workload threw: ") + e.what());
  }
  if (report.attempted == 0) report.errors.push_back("no command attempted");
  if (opt.trace) {
    print_summary(tracer, report);
    if (!opt.trace_out.empty() && !tracer.write(opt.trace_out)) {
      report.errors.push_back("cannot write trace file " + opt.trace_out);
    }
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "[vgbench] CHECK FAILED: %s\n", e.c_str());
  }

  const bool correct = report.errors.empty();
  std::string metrics;
  for (const MetricSpec& m :
       opt.trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = report.values.find(m.name);
    char item[192];
    std::snprintf(item, sizeof(item),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name,
                  it != report.values.end() ? it->second : 0.0, m.unit);
    metrics += item;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return correct ? 0 : 1;
}
