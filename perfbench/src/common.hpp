// Shared plumbing for the perfbench workloads: run configuration, the
// metric report every workload fills in, order statistics, the clock,
// peak RSS and the context stamp printed with every result.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Most worker threads a workload runs at once (the benchmark's load is
/// one process with at most this many workers). Each workload states
/// its own count in workloads.hpp.
inline constexpr std::size_t kMaxWorkerThreads = 4;

struct run_config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< Length of the measured phase.
  bool trace = false;     ///< Per-layer run instead of the end-to-end one.
  std::string tmp_dir;    ///< Scratch directory for JSONL files and journals.
  std::string trace_out;  ///< Chrome trace file of the traced run ("" = none).
};

struct metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `attempted`/`failed` count the trials
/// or segments whose outputs were checked; `end_to_end` and
/// `per_layer` hold every metric of the benchmark by name (per-layer
/// metrics of layers a workload bypasses read 0). `notes` are
/// human-readable lines printed before the result line.
struct report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, metric> end_to_end;
  std::map<std::string, metric> per_layer;
  std::vector<std::string> notes;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Fills every per-layer metric with 0 (the value of a layer the
/// workload bypasses); workloads then overwrite the ones they load.
void zero_per_layer(report& out);

/// Copies a traced run's per-layer self times into `out` as
/// "self_s.<layer>" (layers outside the benchmark's list are ignored).
void add_layer_self_times(report& out,
                          const std::map<std::string, double>& self_s);

/// Seconds on the steady clock (arbitrary epoch).
[[nodiscard]] double now_s();

/// Linear-interpolation percentile (p in [0, 1]) of `values`; 0 when
/// empty. Takes a copy because it sorts.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Size of a file in MiB (0 when absent).
[[nodiscard]] double file_mb(const std::string& path);

/// One-line JSON context stamp: build_info, nproc, the workload's
/// worker threads, load average at start, workload and seed.
[[nodiscard]] std::string context_json(const run_config& config,
                                       std::size_t worker_threads,
                                       double load_average);

/// 1-minute load average from /proc/loadavg (-1 when unreadable).
[[nodiscard]] double load_average_1m();

/// printf-style formatting into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// The autotune probes every engine depends on (simd kernel width and
/// tile size), run once per process before anything else can trigger
/// them: their wall time and the tile size the probe chose.
struct autotune_result {
  double ms = 0.0;
  std::size_t tile_words = 0;
};
[[nodiscard]] autotune_result run_autotune_probes();

/// A 64-bit seed derived from the workload seed and a salt (inputs are
/// a pure function of the workload seed).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t salt);

}  // namespace perfbench
