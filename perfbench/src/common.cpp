#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "support/build_info.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"

namespace perfbench {

namespace {

/// Every per-layer metric of the benchmark, with its unit.
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"graph.build_s", "s"},
    {"support.autotune_ms", "ms"},
    {"support.tile_probe_words", "count"},
    {"core.machine_build_us", "us"},
    {"engine.construct_us", "us"},
    {"engine.run_share", "ratio"},
    {"engine.step_ns_per_word_early", "ns"},
    {"engine.step_ns_per_word_late", "ns"},
    {"engine.compiled_round_share", "ratio"},
    {"engine.plane_round_share", "ratio"},
    {"engine.coins_per_node_round", "count"},
    {"engine.tile_imbalance", "ratio"},
    {"engine.arena_mb", "MB"},
    {"cell.bfw_half.node_rounds_per_s", "1/s"},
    {"cell.bfw_known_d.node_rounds_per_s", "1/s"},
    {"cell.id_broadcast.node_rounds_per_s", "1/s"},
    {"cell.stoneage_bfw.node_rounds_per_s", "1/s"},
    {"sweep.jsonl_mb", "MB"},
    {"sweep.record_overhead_s", "s"},
    {"sweep.worker_busy_frac", "ratio"},
    {"giant.rounds_s", "s"},
    {"giant.ckpt_s", "s"},
    {"giant.ckpt_mb", "MB"},
    {"giant.resume_scan_s", "s"},
    {"trial_ms_p99", "ms"},
    {"round_ms_p50", "ms"},
    {"round_ms_p99", "ms"},
    {"resume_s", "s"},
    {"n64.untraced_ns_per_round", "ns"},
    {"n64.machine_ns_per_round", "ns"},
    {"n64.construct_ns_per_round", "ns"},
    {"n64.rounds_ns_per_round", "ns"},
    {"n64.finish_ns_per_round", "ns"},
    {"n64.wrapper_ns_per_round", "ns"},
    {"n64.harness_ns_per_round", "ns"},
    {"n64.total_ns_per_round", "ns"},
    {"n64.id_broadcast.ns_per_round", "ns"},
    {"n64.id_broadcast.setup_frac", "ratio"},
    {"n64.bfw_known_d.ns_per_round", "ns"},
    {"n64.bfw_known_d.setup_frac", "ratio"},
    {"n64.bfw_half.ns_per_round", "ns"},
    {"n64.bfw_half.setup_frac", "ratio"},
    {"n64.clique_lottery.ns_per_round", "ns"},
    {"n64.clique_lottery.setup_frac", "ratio"},
    {"trace.unattributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

/// Layers whose self time the traced run reports ("bench" is the
/// benchmark's own glue).
constexpr const char* kLayers[] = {"graph",    "support",   "core",
                                   "beeping",  "baselines", "stoneage",
                                   "sweep",    "bench"};

}  // namespace

void zero_per_layer(report& out) {
  for (const auto& [name, unit] : kPerLayer) out.layer(name, 0.0, unit);
  for (const char* layer : kLayers) {
    out.layer(std::string("self_s.") + layer, 0.0, "s");
  }
}

void add_layer_self_times(report& out,
                          const std::map<std::string, double>& self_s) {
  for (const char* layer : kLayers) {
    const auto it = self_s.find(layer);
    if (it != self_s.end()) {
      out.layer(std::string("self_s.") + layer, it->second, "s");
    }
  }
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  return 0.0;
}

double file_mb(const std::string& path) {
  std::error_code error;
  const auto bytes = std::filesystem::file_size(path, error);
  return error ? 0.0 : static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double load_average_1m() {
  std::ifstream loadavg("/proc/loadavg");
  double value = -1.0;
  if (!(loadavg >> value)) return -1.0;
  return value;
}

std::string context_json(const run_config& config, std::size_t worker_threads,
                         double load_average) {
  using beepkit::support::json;
  const json stamp(json::object{
      {"build", beepkit::support::build_info::current().to_json()},
      {"nproc", json(static_cast<std::uint64_t>(
                    std::thread::hardware_concurrency()))},
      {"worker_threads", json(static_cast<std::uint64_t>(worker_threads))},
      {"load_average_1m", json(load_average)},
      {"workload", json(config.workload)},
      {"seed", json(config.seed)},
      {"seconds", json(config.seconds)},
      {"trace", json(config.trace)},
  });
  return stamp.dump();
}

std::string format(const char* fmt, ...) {
  char buffer[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  return buffer;
}

autotune_result run_autotune_probes() {
  const double start = now_s();
  (void)beepkit::support::simd::autotuned_width();
  beepkit::support::tile_executor exec(kMaxWorkerThreads);
  autotune_result result;
  result.tile_words = beepkit::support::autotuned_tile_words(exec);
  result.ms = (now_s() - start) * 1e3;
  return result;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  beepkit::support::rng stream(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
  return stream.next_u64();
}

}  // namespace perfbench
