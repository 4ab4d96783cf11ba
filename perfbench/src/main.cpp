// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload mc-sweep|xl-early|giant-ckpt --seed N
//             --seconds S --trace 0|1 --tmp-dir DIR [--trace-out FILE]
//
// Output: a CONTEXT line (build_info, nproc, workers, load average,
// seed), NOTE lines, one METRIC line per metric (name, value, unit;
// with --trace 1 the end-to-end and the per-layer ones), and as the
// last line one JSON object {"correct", "attempted", "failed",
// "metrics"} holding the end-to-end metrics (--trace 0) or the
// per-layer ones (--trace 1). Exit code 0 on a completed run, 2 on bad
// arguments, 1 when the workload could not run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "support/simd.hpp"
#include "workloads.hpp"

namespace {

using perfbench::metric;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "mc-sweep|xl-early|giant-ckpt --seed N --seconds S "
               "--trace 0|1 --tmp-dir DIR [--trace-out FILE]\n",
               why);
  return 2;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_metrics(const std::map<std::string, metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

void print_metrics(const char* kind,
                   const std::map<std::string, metric>& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("METRIC %s %s = %.6g %s\n", kind, name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::run_config config;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     config.seconds > 0.0 && config.seconds <= 600.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      config.trace = value == "1";
    } else if (flag == "--tmp-dir") {
      config.tmp_dir = value;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace need valid values");
  }
  if (config.tmp_dir.empty() || !std::filesystem::is_directory(config.tmp_dir)) {
    return usage("--tmp-dir must name an existing directory");
  }

  perfbench::report (*workload)(const perfbench::run_config&) = nullptr;
  std::size_t threads = 0;
  if (config.workload == "mc-sweep") {
    workload = perfbench::run_mc_sweep;
    threads = perfbench::kMcSweepWorkers;
  } else if (config.workload == "xl-early") {
    workload = perfbench::run_xl_early;
    threads = perfbench::kXlEarlyThreads;
  } else if (config.workload == "giant-ckpt") {
    workload = perfbench::run_giant_ckpt;
    threads = perfbench::kGiantThreads;
  } else {
    return usage(("unknown workload '" + config.workload + "'").c_str());
  }

  std::printf("CONTEXT %s\n",
              perfbench::context_json(config, threads,
                                      perfbench::load_average_1m())
                  .c_str());
  std::fflush(stdout);
  perfbench::report result;
  try {
    result = workload(config);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", config.workload.c_str(),
                 error.what());
    return 1;
  }
  result.e2e("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  const double failed_frac =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);

  result.note(perfbench::format(
      "autotune: simd width %zu",
      beepkit::support::simd::autotuned_width()));
  for (const std::string& line : result.notes) {
    std::printf("NOTE %s\n", line.c_str());
  }
  print_metrics("end_to_end", result.end_to_end);
  std::printf("METRIC end_to_end failed_frac = %.6g ratio (%llu of %llu)\n",
              failed_frac, static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  if (config.trace) print_metrics("per_layer", result.per_layer);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.failed == 0 && result.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              json_metrics(config.trace ? result.per_layer : result.end_to_end)
                  .c_str());
  return 0;
}
