// The three perfbench workloads and the pieces of them the self-test
// drives directly (algorithm construction and output checks).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "checks.hpp"
#include "common.hpp"
#include "core/convergence.hpp"
#include "graph/graph.hpp"

namespace perfbench {

/// Worker threads of each workload's measured phase. On a VM that shares
/// its host, a round that waits for every vCPU (tile barrier, end of a
/// sweep batch) takes as long as the host takes to run the last of
/// them, and that varies with the host's load from run to run. So the
/// two workloads made of many short units run them on one thread;
/// giant-ckpt, whose rounds are long, keeps four, and xl-early checks
/// its serial engines against four-thread tiled ones (kXlCheckThreads).
inline constexpr std::size_t kMcSweepWorkers = 1;
inline constexpr std::size_t kXlEarlyThreads = 1;
inline constexpr std::size_t kXlCheckThreads = kMaxWorkerThreads;
inline constexpr std::size_t kGiantThreads = kMaxWorkerThreads;

/// Table-1 Monte-Carlo sweep through sweep::run (kMcSweepWorkers
/// inter-trial workers, serial engines, JSONL records).
[[nodiscard]] report run_mc_sweep(const run_config& config);
/// Early-regime rounds on explicit 2^20-node path and grid.
[[nodiscard]] report run_xl_early(const run_config& config);
/// Giant implicit 8192x8192 grid trial with checkpoint and resume.
[[nodiscard]] report run_giant_ckpt(const run_config& config);

namespace mc {

/// Algorithm columns: the sweep runs kFamilies; the n = 64
/// reconciliation runs table1_comparison's columns, kTable1Families
/// (the clique lottery on diameter-1 graphs only).
enum class family {
  bfw_half,
  bfw_known_d,
  id_broadcast,
  stoneage_bfw,
  clique_lottery
};
inline constexpr family kFamilies[] = {family::bfw_half, family::bfw_known_d,
                                       family::id_broadcast,
                                       family::stoneage_bfw};
inline constexpr family kTable1Families[] = {
    family::id_broadcast, family::bfw_known_d, family::bfw_half,
    family::clique_lottery};
[[nodiscard]] const char* family_key(family f);

struct cell {
  const beepkit::analysis::instance* inst = nullptr;
  family fam = family::bfw_half;
  std::size_t trials = 0;
  std::uint64_t horizon = 0;
};

/// One executed trial, in the sweep's global unit order.
struct trial {
  std::size_t cell = 0;
  std::uint64_t seed = 0;
  beepkit::core::election_outcome outcome;
};

/// The library's algorithm for a column: analysis::make_bfw(0.5),
/// make_bfw_known_diameter(D), make_id_broadcast(D),
/// make_clique_lottery(0.01), or stone-age BFW over stoneage::engine.
[[nodiscard]] beepkit::analysis::algorithm library_algorithm(
    family f, const beepkit::analysis::instance& inst);

/// Checks every trial (exactly one leader within its cell's horizon)
/// and re-runs the trials at `sample` (indices into `trials`) through
/// the reference gear (fast path off), which must reproduce rounds,
/// leader and coins. One tally entry per trial.
[[nodiscard]] check_tally check_trials(const std::vector<cell>& cells,
                                       const std::vector<trial>& trials,
                                       const std::vector<std::size_t>& sample);

}  // namespace mc

namespace xl {

/// Steps BFW(1/2) from the all-W start on `g` for `rounds` rounds with
/// `threads` tiled workers (even split) and returns the resulting state;
/// `tile_imbalance`, when given, receives the engine's telemetry value.
[[nodiscard]] engine_state step_bfw(const beepkit::graph::graph& g,
                                    std::uint64_t seed, std::uint64_t rounds,
                                    std::size_t threads,
                                    double* tile_imbalance = nullptr);

}  // namespace xl

}  // namespace perfbench
