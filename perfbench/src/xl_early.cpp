// xl-early: the coin-heavy early regime at scale. One trial steps
// BFW(1/2) from the all-W start for kRounds rounds on an explicit
// path(2^20), then on an explicit grid(1024x1024), each on the default
// engine configuration (dense RNG store) with kXlEarlyThreads threads.
// The output check replays trials on engines tiled kXlCheckThreads ways
// (see even_tile_words), which must end in the same state.
// Trials take fresh seeds until --seconds have passed. No sweep, no I/O.
#include <algorithm>
#include <optional>

#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "graph/generators.hpp"
#include "spans.hpp"
#include "support/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace an = beepkit::analysis;
namespace bp = beepkit::beeping;
namespace core = beepkit::core;
namespace graph = beepkit::graph;
namespace tel = beepkit::support::telemetry;

namespace xl {

namespace {

/// Rounds per engine: exactly the early regime (rounds 0-63).
constexpr std::uint64_t kRounds = 64;
constexpr std::size_t kPathNodes = std::size_t{1} << 20;
constexpr std::size_t kGridSide = 1024;
/// Tile size for `threads` workers on an n-node engine: the even split,
/// which is what set_parallelism(threads, 0) resolves to when the
/// process-wide tile probe picks the whole-range split. The probe is a
/// timing race decided once per process; on a busy host it sometimes
/// picks 8192-word tiles, which leave two of four workers idle on the
/// 16384-word engines here. Pinning the split keeps the tiled replays'
/// engine.tile_imbalance comparable; the probe's own choice is reported
/// as support.tile_probe_words.
std::size_t even_tile_words(std::size_t nodes, std::size_t threads) {
  return std::max<std::size_t>(1, (nodes + 63) / 64 / threads);
}

struct graphs {
  an::instance path;
  an::instance grid;
};

graphs build_graphs() {
  return {an::make_instance(graph::make_path(kPathNodes)),
          an::make_instance(graph::make_grid(kGridSide, kGridSide))};
}

/// What one tiled engine run leaves behind for the metrics.
struct engine_run {
  engine_state state;
  double construct_s = 0.0;
  std::vector<double> step_s;
  beepkit::support::telemetry::engine_metrics telemetry;
  std::size_t arena_bytes = 0;
};

/// One engine of one trial: build, set its threads, step kRounds rounds
/// (each timed), read the state back, destroy.
engine_run run_engine(const graph::graph& g, std::uint64_t seed) {
  engine_run run;
  const double start = now_s();
  std::optional<core::bfw_machine> machine;
  std::optional<bp::fsm_protocol> proto;
  {
    tel::scoped_span s("core.machine_build", "core");
    machine.emplace(0.5);
    proto.emplace(*machine);
  }
  std::optional<bp::engine> sim;
  {
    tel::scoped_span s("beeping.construct", "beeping");
    sim.emplace(g, *proto, seed);
  }
  {
    tel::scoped_span s("support.set_parallelism", "support");
    sim->set_parallelism(kXlEarlyThreads,
                         even_tile_words(g.node_count(), kXlEarlyThreads));
  }
  run.construct_s = now_s() - start;
  run.step_s.reserve(kRounds);
  {
    tel::scoped_span s("beeping.rounds_early", "beeping");
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      const double step_start = now_s();
      sim->step();
      run.step_s.push_back(now_s() - step_start);
    }
  }
  {
    tel::scoped_span s("beeping.read_state", "beeping");
    run.state = {sim->round(), sim->leader_count(),
                 sim->total_coins_consumed()};
    run.telemetry = sim->telemetry_metrics();
    run.arena_bytes = sim->arena_bytes_reserved();
  }
  {
    tel::scoped_span s("beeping.destroy", "beeping");
    sim.reset();
  }
  {
    tel::scoped_span s("core.machine_destroy", "core");
    proto.reset();
    machine.reset();
  }
  return run;
}

struct trial_result {
  double wall_s = 0.0;
  engine_run path;
  engine_run grid;
};

trial_result run_trial(const graphs& gs, std::uint64_t seed) {
  tel::scoped_span s("bench.trial", "bench");
  trial_result result;
  const double start = now_s();
  result.path = run_engine(gs.path.g, seed);
  result.grid = run_engine(gs.grid.g, seed);
  result.wall_s = now_s() - start;
  return result;
}

std::uint64_t trial_seed(std::uint64_t seed, std::size_t trial) {
  return derive_seed(seed, 100 + trial);
}

bool basic_ok(const engine_state& state) {
  return state.rounds == kRounds && state.leaders >= 1;
}

}  // namespace

engine_state step_bfw(const graph::graph& g, std::uint64_t seed,
                      std::uint64_t rounds, std::size_t threads,
                      double* tile_imbalance) {
  const core::bfw_machine machine(0.5);
  bp::fsm_protocol proto(machine);
  bp::engine sim(g, proto, seed);
  if (threads != 1) {
    sim.set_parallelism(threads, even_tile_words(g.node_count(), threads));
  }
  sim.run_rounds(rounds);
  if (tile_imbalance != nullptr) {
    *tile_imbalance = sim.telemetry_metrics().tile_imbalance;
  }
  return {sim.round(), sim.leader_count(), sim.total_coins_consumed()};
}

}  // namespace xl

report run_xl_early(const run_config& config) {
  using namespace xl;
  report out;
  zero_per_layer(out);
  const autotune_result autotune = run_autotune_probes();

  // Set-up, five times: both graphs with their diameters, then one
  // engine on each as the trials run them (construction, kernel bind,
  // arena).
  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::optional<graphs> gs;
  for (int i = 0; i < 5; ++i) {
    const double start = now_s();
    gs.reset();
    gs.emplace(build_graphs());
    const double built = now_s();
    for (const graph::graph* g : {&gs->path.g, &gs->grid.g}) {
      const core::bfw_machine machine(0.5);
      bp::fsm_protocol proto(machine);
      bp::engine sim(*g, proto, config.seed);
      sim.set_parallelism(kXlEarlyThreads,
                          even_tile_words(g->node_count(), kXlEarlyThreads));
    }
    build_s.push_back(built - start);
    setup_s.push_back(now_s() - start);
  }

  // ---- measured phase (tracing off) --------------------------------
  std::vector<trial_result> trials;
  double wall = 0.0;
  while (trials.empty() || wall < config.seconds) {
    trials.push_back(run_trial(*gs, trial_seed(config.seed, trials.size())));
    wall += trials.back().wall_s;
  }
  const double n = static_cast<double>(kPathNodes);
  const double words = n / 64.0;
  // Throughput is the median of per-trial rates, so a slow stretch of
  // the machine moves it less than a whole-run mean.
  std::vector<double> trial_ms;
  std::vector<double> trial_rate;
  std::vector<double> trial_node_rate;
  std::vector<double> round_ms;
  double node_rounds = 0.0;
  double step_total = 0.0;
  double construct_total = 0.0;
  double coins = 0.0;
  double compiled = 0.0;
  double plane = 0.0;
  double engine_rounds = 0.0;
  std::size_t arena_bytes = 0;
  for (const trial_result& t : trials) {
    trial_ms.push_back(t.wall_s * 1e3);
    trial_rate.push_back(1.0 / t.wall_s);
    trial_node_rate.push_back(
        n * static_cast<double>(t.path.state.rounds + t.grid.state.rounds) /
        t.wall_s);
    for (const engine_run* run : {&t.path, &t.grid}) {
      node_rounds += n * static_cast<double>(run->state.rounds);
      for (const double s : run->step_s) {
        round_ms.push_back(s * 1e3);
        step_total += s;
      }
      construct_total += run->construct_s;
      coins += static_cast<double>(run->state.coins);
      compiled += static_cast<double>(run->telemetry.rounds_plane_compiled);
      plane += static_cast<double>(run->telemetry.rounds_plane_compiled +
                                   run->telemetry.rounds_plane_interpreted);
      engine_rounds += static_cast<double>(run->telemetry.rounds_total());
      arena_bytes = std::max(arena_bytes, run->arena_bytes);
    }
  }
  const double engines = 2.0 * static_cast<double>(trials.size());
  out.e2e("node_rounds_per_s", median(trial_node_rate), "1/s");
  out.e2e("trials_per_s", median(trial_rate), "1/s");
  out.e2e("trial_ms_p50", percentile(trial_ms, 0.50), "ms");
  out.e2e("setup_s", autotune.ms * 1e-3 + median(setup_s), "s");
  out.note(format("xl-early: %zu trials x 2 engines x %llu rounds on 2^20 "
                  "nodes, %.3f s measured; round_ms p50 %.4f p99 %.4f over "
                  "%zu rounds",
                  trials.size(), static_cast<unsigned long long>(kRounds),
                  wall, percentile(round_ms, 0.50), percentile(round_ms, 0.99),
                  round_ms.size()));

  // ---- output checks (untimed) -------------------------------------
  // Every engine ran its rounds and kept a leader; trial 0 and one
  // seeded trial are replayed on engines tiled kXlCheckThreads ways,
  // which must end with the same leader count and coin total.
  std::vector<std::size_t> replay = {0};
  if (trials.size() > 1) {
    replay.push_back(1 + derive_seed(config.seed, 0x71) % (trials.size() - 1));
  }
  std::vector<char> ok(trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    ok[i] = basic_ok(trials[i].path.state) && basic_ok(trials[i].grid.state);
  }
  std::vector<double> replay_imbalance;
  for (const std::size_t i : replay) {
    const std::uint64_t seed = trial_seed(config.seed, i);
    for (const auto& [g, state] :
         {std::pair{&gs->path.g, trials[i].path.state},
          std::pair{&gs->grid.g, trials[i].grid.state}}) {
      double imbalance = 0.0;
      const bool same =
          step_bfw(*g, seed, kRounds, kXlCheckThreads, &imbalance) == state;
      ok[i] = ok[i] && same;
      replay_imbalance.push_back(imbalance);
    }
  }
  check_tally tally;
  for (const char pass : ok) tally.add(pass != 0);
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.note(format("xl-early: checked %llu trials (%zu replayed on %zu "
                  "threads), %llu failed",
                  static_cast<unsigned long long>(tally.attempted),
                  replay.size(), kXlCheckThreads,
                  static_cast<unsigned long long>(tally.failed)));

  if (!config.trace) return out;

  // ---- per-layer run -----------------------------------------------
  out.layer("graph.build_s", median(build_s), "s");
  out.layer("support.autotune_ms", autotune.ms, "ms");
  out.layer("support.tile_probe_words",
            static_cast<double>(autotune.tile_words), "count");
  out.layer("engine.construct_us", construct_total / engines * 1e6, "us");
  out.layer("engine.step_ns_per_word_early",
            step_total / (engines * static_cast<double>(kRounds) * words) * 1e9,
            "ns");
  out.layer("engine.compiled_round_share",
            engine_rounds > 0 ? compiled / engine_rounds : 0.0, "ratio");
  out.layer("engine.plane_round_share",
            engine_rounds > 0 ? plane / engine_rounds : 0.0, "ratio");
  out.layer("engine.coins_per_node_round", coins / node_rounds, "count");
  out.layer("engine.tile_imbalance", median(replay_imbalance), "ratio");
  out.layer("engine.arena_mb",
            static_cast<double>(arena_bytes) / (1024.0 * 1024.0), "MB");
  out.layer("round_ms_p50", percentile(round_ms, 0.50), "ms");
  out.layer("round_ms_p99", percentile(round_ms, 0.99), "ms");

  // The same trials again, traced; states must match the untraced run.
  double traced_wall = 0.0;
  std::uint64_t mismatches = 0;
  span_summary sum;
  std::uint64_t lost_spans = 0;
  {
    trace_session session(config.tmp_dir + "/trace-chunk.json",
                          config.trace_out);
    for (std::size_t i = 0; i < trials.size(); ++i) {
      const trial_result t = run_trial(*gs, trial_seed(config.seed, i));
      session.flush();
      traced_wall += t.wall_s;
      if (!(t.path.state == trials[i].path.state &&
            t.grid.state == trials[i].grid.state)) {
        ++mismatches;
      }
    }
    sum = session.summary();
    lost_spans = session.lost();
  }
  out.failed = std::min(out.attempted, out.failed + mismatches);
  out.note(format("xl-early: traced states differing from untraced: %llu; "
                  "spans lost: %llu",
                  static_cast<unsigned long long>(mismatches),
                  static_cast<unsigned long long>(lost_spans)));
  out.layer("trace.overhead_frac", 1.0 - wall / traced_wall, "ratio");
  out.layer("trace.unattributed_frac", sum.unattributed_frac(), "ratio");
  add_layer_self_times(out, sum.self_s_by_layer);
  return out;
}

}  // namespace perfbench
