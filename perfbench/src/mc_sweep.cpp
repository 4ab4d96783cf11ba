// mc-sweep: the paper's Table-1 experiment as users run it - every
// (topology, algorithm) cell at n = 64 and n = 1024 through
// sweep::run with kMcSweepWorkers inter-trial workers, serial engines
// and a JSONL record stream. The measured phase repeats the whole
// sweep ("a rep") with fresh seeds until --seconds have passed; every
// trial runs to election under the benches' horizon rule
// (8 x default_horizon).
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "baselines/clique_lottery.hpp"
#include "baselines/id_broadcast.hpp"
#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "core/bfw_stoneage.hpp"
#include "graph/generators.hpp"
#include "stoneage/stoneage.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "sweep/sweep.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace an = beepkit::analysis;
namespace bp = beepkit::beeping;
namespace core = beepkit::core;
namespace graph = beepkit::graph;
namespace sa = beepkit::stoneage;
namespace tel = beepkit::support::telemetry;

namespace mc {

namespace {

/// Round ranges of the traced round loop: the coin-heavy start and the
/// quiet late regime.
constexpr std::uint64_t kEarlyRounds = 64;
/// Trials per cell in one rep: the n = 64 cells (one-word rounds,
/// per-trial setup dominant) carry most trials, the n = 1024 cells (16
/// words) most rounds. Four trials per n = 1024 cell keep one
/// heavy-tailed trial from setting a rep's rate.
constexpr std::size_t kTrials64 = 32;
constexpr std::size_t kTrials1024 = 4;
/// Trials per run re-run through the reference gear.
constexpr std::size_t kReferenceSample = 8;
/// Reps of the serial n = 64 reconciliation pass, and its trials per
/// cell (`table1_comparison --n 64 --trials 25`).
constexpr std::size_t kReconcileReps = 20;
constexpr std::size_t kReconcileTrials = 25;
/// The clique lottery's failure bound in table1_comparison.
constexpr double kLotteryEpsilon = 0.01;

core::election_outcome finish_stone(sa::engine& sim,
                                    const sa::engine::run_result& result) {
  core::election_outcome outcome;
  outcome.converged = result.converged;
  outcome.rounds = result.rounds;
  outcome.final_leader_count = result.leaders;
  if (result.converged) outcome.leader = sim.sole_leader();
  outcome.gather_kernel = sim.gather_kernel_used();
  outcome.engine_threads = sim.parallel_threads();
  outcome.engine_tile_words = sim.tile_words();
  return outcome;
}

bool uses_fsm(family f) {
  return f == family::bfw_half || f == family::bfw_known_d;
}

core::election_outcome reference_run(family f, const an::instance& inst,
                                     std::uint64_t seed,
                                     std::uint64_t horizon) {
  core::election_options options;
  options.max_rounds = horizon;
  options.fast_path = false;
  switch (f) {
    case family::bfw_half:
      return core::run_election(inst.view(), core::bfw_machine(0.5), seed,
                                options);
    case family::bfw_known_d:
      return core::run_election(
          inst.view(), core::make_known_diameter_bfw(inst.diameter), seed,
          options);
    case family::stoneage_bfw: {
      const core::bfw_stone_automaton automaton(0.5);
      sa::engine sim(inst.view(), automaton, 1, seed);
      sim.set_fast_path_enabled(false);
      return finish_stone(sim, sim.run_until_single_leader(horizon));
    }
    case family::id_broadcast:
    case family::clique_lottery:
      break;
  }
  throw std::logic_error("mc-sweep: no reference gear for this column");
}

// ---- traced algorithms ----------------------------------------------
// The library algorithms above, decomposed into their layer calls with
// a span around each. They construct exactly what the library
// callables construct, in the same order, so outcomes are identical.

struct round_span_names {
  const char* early;
  const char* late;
};
constexpr round_span_names kFsmRounds{"beeping.rounds_early",
                                      "beeping.rounds_late"};
constexpr round_span_names kGenericRounds{"beeping.generic_rounds_early",
                                          "beeping.generic_rounds_late"};

core::election_outcome traced_engine_run(const graph::topology_view& view,
                                         bp::protocol& proto,
                                         std::uint64_t seed,
                                         std::uint64_t max_rounds,
                                         round_span_names names) {
  std::optional<bp::engine> sim;
  {
    tel::scoped_span s("beeping.construct", "beeping");
    sim.emplace(view, proto, seed);
  }
  bp::run_result result;
  {
    tel::scoped_span s(names.early, "beeping");
    result = sim->run_until_single_leader(std::min(kEarlyRounds, max_rounds));
  }
  if (result.leaders > 1 && result.rounds < max_rounds) {
    tel::scoped_span s(names.late, "beeping");
    result = sim->run_until_single_leader(max_rounds);
  }
  core::election_outcome outcome;
  {
    tel::scoped_span s("core.finish_election", "core");
    outcome = core::finish_election(*sim, result);
  }
  {
    tel::scoped_span s("beeping.destroy", "beeping");
    sim.reset();
  }
  return outcome;
}

/// A generic (virtual, per-node) protocol from the baselines layer.
template <typename Protocol, typename... Args>
decltype(an::algorithm::run) traced_baseline(Args... args) {
  return [args...](const graph::topology_view& view, std::uint64_t seed,
                   std::uint64_t max_rounds) {
    tel::scoped_span trial("bench.trial", "bench");
    std::optional<Protocol> proto;
    {
      tel::scoped_span s("baselines.protocol_build", "baselines");
      proto.emplace(args...);
    }
    return traced_engine_run(view, *proto, seed, max_rounds, kGenericRounds);
  };
}

an::algorithm traced_algorithm(family f, const an::instance& inst) {
  const std::uint32_t diameter = inst.diameter;
  an::algorithm algo = library_algorithm(f, inst);
  switch (f) {
    case family::bfw_half:
    case family::bfw_known_d:
      algo.run = [diameter, f](const graph::topology_view& view,
                               std::uint64_t seed, std::uint64_t max_rounds) {
        tel::scoped_span trial("bench.trial", "bench");
        std::optional<core::bfw_machine> machine;
        std::optional<bp::fsm_protocol> proto;
        {
          tel::scoped_span s("core.machine_build", "core");
          if (f == family::bfw_half) {
            machine.emplace(0.5);
          } else {
            machine.emplace(core::make_known_diameter_bfw(diameter));
          }
          proto.emplace(*machine);
        }
        return traced_engine_run(view, *proto, seed, max_rounds, kFsmRounds);
      };
      break;
    case family::id_broadcast:
      algo.run = traced_baseline<beepkit::baselines::id_broadcast_election>(
          diameter);
      break;
    case family::clique_lottery:
      algo.run =
          traced_baseline<beepkit::baselines::clique_lottery>(kLotteryEpsilon);
      break;
    case family::stoneage_bfw:
      algo.run = [](const graph::topology_view& view, std::uint64_t seed,
                    std::uint64_t max_rounds) {
        tel::scoped_span trial("bench.trial", "bench");
        std::optional<core::bfw_stone_automaton> automaton;
        {
          tel::scoped_span s("stoneage.automaton_build", "stoneage");
          automaton.emplace(0.5);
        }
        std::optional<sa::engine> sim;
        {
          tel::scoped_span s("stoneage.construct", "stoneage");
          sim.emplace(view, *automaton, 1, seed);
        }
        sa::engine::run_result result;
        {
          tel::scoped_span s("stoneage.rounds_early", "stoneage");
          result =
              sim->run_until_single_leader(std::min(kEarlyRounds, max_rounds));
        }
        if (result.leaders > 1 && result.rounds < max_rounds) {
          tel::scoped_span s("stoneage.rounds_late", "stoneage");
          result = sim->run_until_single_leader(max_rounds);
        }
        core::election_outcome outcome;
        {
          tel::scoped_span s("stoneage.finish", "stoneage");
          outcome = finish_stone(*sim, result);
        }
        {
          tel::scoped_span s("stoneage.destroy", "stoneage");
          sim.reset();
        }
        return outcome;
      };
      break;
  }
  return algo;
}

// ---- untraced timing wrapper ----------------------------------------

/// Per-trial wall times of one rep, recorded by the wrapped `run`
/// callables from the sweep's workers.
struct trial_clock {
  struct sample {
    double seconds = 0.0;
    std::uint32_t cell = 0;
  };
  std::vector<sample> samples;
  std::atomic<std::size_t> next{0};

  void record(double seconds, std::uint32_t cell) noexcept {
    const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i < samples.size()) samples[i] = {seconds, cell};
  }
};

an::algorithm timed(an::algorithm algo, trial_clock& clock,
                    std::uint32_t cell) {
  algo.run = [run = std::move(algo.run), &clock, cell](
                 const graph::topology_view& view, std::uint64_t seed,
                 std::uint64_t max_rounds) {
    const double start = now_s();
    core::election_outcome outcome = run(view, seed, max_rounds);
    clock.record(now_s() - start, cell);
    return outcome;
  };
  return algo;
}

// ---- plan and reps ----------------------------------------------------

struct plan {
  std::vector<an::instance> instances;
  std::vector<cell> cells;
  std::size_t units_per_rep = 0;
};

/// BFW(1/2) and stone-age BFW (also p = 1/2) run 0.1-1.6 M rounds on
/// path(1024) and cycle(1024), with a heavy tail: a few such trials
/// would set a run's wall time and its spread. Those four cells are left
/// out; every other (topology, column) pair runs at both sizes.
bool in_sweep(const an::instance& inst, family f) {
  const bool long_diameter =
      inst.node_count() > 64 && inst.diameter + 1 >= inst.node_count() / 2;
  return !(long_diameter &&
           (f == family::bfw_half || f == family::stoneage_bfw));
}

/// The Table-1 instances (graph build + exact diameter) and cells.
plan build_plan(std::uint64_t seed) {
  plan p;
  p.instances.reserve(10);
  for (const std::size_t n : {std::size_t{64}, std::size_t{1024}}) {
    beepkit::support::rng graph_rng(derive_seed(seed, n));
    p.instances.push_back(an::make_instance(graph::make_path(n)));
    p.instances.push_back(an::make_instance(graph::make_cycle(n)));
    p.instances.push_back(an::make_instance(graph::make_grid(8, n / 8)));
    p.instances.push_back(an::make_instance(graph::make_erdos_renyi_connected(
        n, 6.0 / static_cast<double>(n), graph_rng)));
    p.instances.push_back(an::make_instance(graph::make_complete(n)));
  }
  for (const an::instance& inst : p.instances) {
    const std::uint64_t horizon =
        8 * core::default_horizon(inst.g, inst.diameter);
    const std::size_t trials =
        inst.node_count() <= 64 ? kTrials64 : kTrials1024;
    for (const family f : kFamilies) {
      if (!in_sweep(inst, f)) continue;
      p.cells.push_back({&inst, f, trials, horizon});
      p.units_per_rep += trials;
    }
  }
  return p;
}

struct rep_stats {
  double wall_s = 0.0;
  double jsonl_mb = 0.0;
  std::string error;
};

/// Runs one whole sweep over the plan's cells with rep-specific cell
/// seeds, appending every trial (in global unit order) to `out`. A rep
/// that throws pads `out` with unchecked entries so its lost units
/// count as failed. Cell c takes the seed of cell `cell_offset + c`,
/// so a plan split into parts reproduces the whole plan's trials.
rep_stats run_rep(const plan& p, const std::vector<an::algorithm>& algos,
                  std::uint64_t seed, std::size_t rep, std::size_t threads,
                  const std::string& jsonl_path, std::vector<trial>& out,
                  std::size_t cell_offset = 0) {
  beepkit::sweep::spec spec;
  spec.name = "perfbench-mc-sweep";
  for (std::size_t c = 0; c < p.cells.size(); ++c) {
    spec.cells.push_back({p.cells[c].inst, algos[c], p.cells[c].trials,
                          derive_seed(seed, 1 + rep * 1024 + cell_offset + c),
                          p.cells[c].horizon});
  }
  beepkit::sweep::options opts;
  opts.threads = threads;
  opts.jsonl_path = jsonl_path;
  opts.on_trial = [&out](const beepkit::sweep::unit& u,
                         const core::election_outcome& outcome) {
    out.push_back({u.cell, u.seed, outcome});
  };
  const std::size_t before = out.size();
  rep_stats stats;
  const double start = now_s();
  try {
    tel::scoped_span s("sweep.run", "sweep");
    (void)beepkit::sweep::run(spec, opts);
  } catch (const std::exception& error) {
    stats.error = error.what();
  }
  stats.wall_s = now_s() - start;
  out.resize(before + p.units_per_rep,
             trial{p.cells.size(), 0, core::election_outcome{}});
  if (!jsonl_path.empty()) {
    stats.jsonl_mb = file_mb(jsonl_path);
    std::error_code ignored;
    std::filesystem::remove(jsonl_path, ignored);
    std::filesystem::remove(jsonl_path + ".tmp", ignored);
  }
  return stats;
}

std::uint64_t node_rounds(const plan& p, const trial& t) {
  if (t.cell >= p.cells.size()) return 0;
  return static_cast<std::uint64_t>(p.cells[t.cell].inst->node_count()) *
         t.outcome.rounds;
}

/// FNV-1a over the checked fields of a rep's trials, in unit order: the
/// traced rep must reproduce it.
std::uint64_t outcome_digest(const std::vector<trial>& trials) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const trial& t : trials) {
    mix(t.cell);
    mix(t.seed);
    mix(t.outcome.converged ? 1 : 0);
    mix(t.outcome.rounds);
    mix(t.outcome.leader);
    mix(t.outcome.total_coins);
    mix(t.outcome.final_leader_count);
  }
  return h;
}

/// The n = 64 part of a trial-round's cost, from one column's spans.
struct n64_split {
  double rounds = 0.0;  ///< Trial-rounds of the column.
  double machine_s = 0.0;
  double construct_s = 0.0;
  double loop_s = 0.0;
  double finish_s = 0.0;  ///< finish_election and destruction.
  double wrapper_s = 0.0;
  double harness_s = 0.0;  ///< sweep::run outside the trials.
  double total_s = 0.0;    ///< sweep::run wall.

  [[nodiscard]] double setup_s() const {
    return machine_s + construct_s + finish_s;
  }
  void add(const n64_split& o) {
    rounds += o.rounds;
    machine_s += o.machine_s;
    construct_s += o.construct_s;
    loop_s += o.loop_s;
    finish_s += o.finish_s;
    wrapper_s += o.wrapper_s;
    harness_s += o.harness_s;
    total_s += o.total_s;
  }
};

n64_split split_of(const span_summary& sum, double rounds) {
  n64_split s;
  s.rounds = rounds;
  s.machine_s = sum.total_s("core.machine_build") +
                sum.total_s("baselines.protocol_build") +
                sum.total_s("stoneage.automaton_build");
  s.construct_s =
      sum.total_s("beeping.construct") + sum.total_s("stoneage.construct");
  s.loop_s = sum.total_s("beeping.rounds_early") +
             sum.total_s("beeping.rounds_late") +
             sum.total_s("beeping.generic_rounds_early") +
             sum.total_s("beeping.generic_rounds_late") +
             sum.total_s("stoneage.rounds_early") +
             sum.total_s("stoneage.rounds_late");
  s.finish_s = sum.total_s("core.finish_election") +
               sum.total_s("stoneage.finish") +
               sum.total_s("beeping.destroy") +
               sum.total_s("stoneage.destroy");
  s.wrapper_s = sum.self_s("bench.trial");
  s.harness_s = sum.self_s("sweep.run");
  s.total_s = sum.total_s("sweep.run");
  return s;
}

/// n = 64 reconciliation: table1_comparison's cells at n = 64
/// (IdBroadcast, BFW(1/(D+1)), BFW(1/2) on the five topologies, the
/// clique lottery on the complete graph; 25 trials each) through a
/// serial sweep, as `table1_comparison --n 64 --trials 25 --threads 1`
/// runs them. An untraced pass gives the end-to-end ns per trial-round
/// that command reports; a traced pass over the same inputs, one column
/// at a time, splits it into machine build, engine construction, the
/// round loop, finish + destroy, the trial wrapper and the sweep's
/// harness (batching and fold; like that command, no JSONL records).
/// Returns the traced reps whose outcomes differ from the untraced ones.
std::uint64_t reconcile_n64(report& out, const plan& p, std::uint64_t seed,
                            const std::string& trace_scratch) {
  std::vector<plan> columns;
  for (const family f : kTable1Families) {
    plan column;
    for (const an::instance& inst : p.instances) {
      if (inst.node_count() != 64) continue;
      if (f == family::clique_lottery && inst.diameter > 1) continue;
      column.cells.push_back({&inst, f, kReconcileTrials,
                              8 * core::default_horizon(inst.g, inst.diameter)});
      column.units_per_rep += kReconcileTrials;
    }
    columns.push_back(std::move(column));
  }
  // Untraced: all columns in one sweep per rep, as table1_comparison.
  plan all;
  for (const plan& column : columns) {
    all.cells.insert(all.cells.end(), column.cells.begin(), column.cells.end());
    all.units_per_rep += column.units_per_rep;
  }
  std::vector<an::algorithm> algos;
  for (const cell& c : all.cells) {
    algos.push_back(library_algorithm(c.fam, *c.inst));
  }
  std::vector<std::uint64_t> digests;
  double untraced_s = 0.0;
  double rounds = 0.0;
  for (std::size_t rep = 0; rep < kReconcileReps; ++rep) {
    std::vector<trial> trials;
    untraced_s += run_rep(all, algos, seed, rep, 1, "", trials).wall_s;
    for (const trial& t : trials) {
      rounds += static_cast<double>(t.outcome.rounds);
    }
    digests.push_back(outcome_digest(trials));
  }

  // Traced, one column at a time; the cell seeds are the untraced
  // sweep's (cell index offset), so the outcomes must match it.
  std::vector<std::vector<trial>> traced(kReconcileReps);
  n64_split total;
  std::size_t offset = 0;
  for (std::size_t k = 0; k < columns.size(); ++k) {
    const plan& column = columns[k];
    std::vector<an::algorithm> traced_algos;
    for (const cell& c : column.cells) {
      traced_algos.push_back(traced_algorithm(c.fam, *c.inst));
    }
    trace_session session(trace_scratch, "");
    double column_rounds = 0.0;
    for (std::size_t rep = 0; rep < kReconcileReps; ++rep) {
      std::vector<trial> trials;
      (void)run_rep(column, traced_algos, seed, rep, 1, "", trials, offset);
      session.flush();
      for (trial& t : trials) {
        column_rounds += static_cast<double>(t.outcome.rounds);
        t.cell += offset;
        traced[rep].push_back(t);
      }
    }
    offset += column.cells.size();
    const n64_split split = split_of(session.summary(), column_rounds);
    total.add(split);
    const std::string key = family_key(kTable1Families[k]);
    const double per_round =
        column_rounds > 0 ? split.total_s / column_rounds * 1e9 : 0.0;
    const double setup_frac =
        split.total_s > 0 ? split.setup_s() / split.total_s : 0.0;
    out.layer("n64." + key + ".ns_per_round", per_round, "ns");
    out.layer("n64." + key + ".setup_frac", setup_frac, "ratio");
    out.note(format(
        "mc-sweep n=64 %s: %.0f%% of trial-rounds, %.1f ns per own round "
        "(loop %.1f), per-trial setup %.1f%% of its time",
        key.c_str(), rounds > 0 ? column_rounds / rounds * 100.0 : 0.0,
        per_round,
        column_rounds > 0 ? split.loop_s / column_rounds * 1e9 : 0.0,
        setup_frac * 100.0));
  }
  std::uint64_t mismatches = 0;
  for (std::size_t rep = 0; rep < kReconcileReps; ++rep) {
    if (outcome_digest(traced[rep]) != digests[rep]) ++mismatches;
  }

  const auto per_round = [rounds](double seconds) {
    return rounds > 0 ? seconds / rounds * 1e9 : 0.0;
  };
  out.layer("n64.untraced_ns_per_round", per_round(untraced_s), "ns");
  out.layer("n64.machine_ns_per_round", per_round(total.machine_s), "ns");
  out.layer("n64.construct_ns_per_round", per_round(total.construct_s), "ns");
  out.layer("n64.rounds_ns_per_round", per_round(total.loop_s), "ns");
  out.layer("n64.finish_ns_per_round", per_round(total.finish_s), "ns");
  out.layer("n64.wrapper_ns_per_round", per_round(total.wrapper_s), "ns");
  out.layer("n64.harness_ns_per_round", per_round(total.harness_s), "ns");
  out.layer("n64.total_ns_per_round", per_round(total.total_s), "ns");
  out.note(format(
      "mc-sweep n=64 table1 cells, serial: %zu trials/rep x %zu reps, %.1f "
      "rounds/trial; untraced %.1f ns per trial-round; traced split: machine "
      "%.1f, construct %.1f, round loop %.1f, finish+destroy %.1f, wrapper "
      "%.1f, sweep harness %.1f, total %.1f; traced reps differing: %llu",
      all.units_per_rep, kReconcileReps,
      rounds / static_cast<double>(all.units_per_rep * kReconcileReps),
      per_round(untraced_s), per_round(total.machine_s),
      per_round(total.construct_s), per_round(total.loop_s),
      per_round(total.finish_s), per_round(total.wrapper_s),
      per_round(total.harness_s), per_round(total.total_s),
      static_cast<unsigned long long>(mismatches)));
  return mismatches;
}

/// A seeded uniform sample of up to `k` trials from a stream
/// (reservoir sampling), so the reference re-runs draw from every rep
/// without keeping the reps.
class reservoir {
 public:
  reservoir(std::size_t k, std::uint64_t seed) : k_(k), pick_(seed) {}

  void offer(const trial& t) {
    ++seen_;
    if (kept_.size() < k_) {
      kept_.push_back(t);
      return;
    }
    const std::uint64_t j = pick_.next_u64() % seen_;
    if (j < k_) kept_[j] = t;
  }
  [[nodiscard]] const std::vector<trial>& kept() const noexcept {
    return kept_;
  }

 private:
  std::size_t k_;
  beepkit::support::rng pick_;
  std::uint64_t seen_ = 0;
  std::vector<trial> kept_;
};

}  // namespace

const char* family_key(family f) {
  switch (f) {
    case family::bfw_half:
      return "bfw_half";
    case family::bfw_known_d:
      return "bfw_known_d";
    case family::id_broadcast:
      return "id_broadcast";
    case family::stoneage_bfw:
      return "stoneage_bfw";
    case family::clique_lottery:
      return "clique_lottery";
  }
  return "unknown";
}

an::algorithm library_algorithm(family f, const an::instance& inst) {
  switch (f) {
    case family::bfw_half:
      return an::make_bfw(0.5);
    case family::bfw_known_d:
      return an::make_bfw_known_diameter(inst.diameter);
    case family::id_broadcast:
      return an::make_id_broadcast(inst.diameter);
    case family::clique_lottery:
      return an::make_clique_lottery(kLotteryEpsilon);
    case family::stoneage_bfw:
      return {"StoneAge-BFW(p=0.5)",
              [](const graph::topology_view& view, std::uint64_t seed,
                 std::uint64_t max_rounds) {
                const core::bfw_stone_automaton automaton(0.5);
                sa::engine sim(view, automaton, 1, seed);
                const sa::engine::run_result result =
                    sim.run_until_single_leader(max_rounds);
                return finish_stone(sim, result);
              }};
  }
  throw std::logic_error("mc-sweep: unknown column");
}

check_tally check_trials(const std::vector<cell>& cells,
                         const std::vector<trial>& trials,
                         const std::vector<std::size_t>& sample) {
  std::vector<char> ok(trials.size(), 0);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const trial& t = trials[i];
    ok[i] = t.cell < cells.size() &&
            election_ok(t.outcome, cells[t.cell].horizon);
  }
  for (const std::size_t i : sample) {
    if (i >= trials.size() || !ok[i]) continue;
    const trial& t = trials[i];
    const cell& c = cells[t.cell];
    try {
      ok[i] = same_election(t.outcome,
                            reference_run(c.fam, *c.inst, t.seed, c.horizon));
    } catch (const std::exception&) {
      ok[i] = 0;
    }
  }
  check_tally tally;
  for (const char pass : ok) tally.add(pass != 0);
  return tally;
}

}  // namespace mc

report run_mc_sweep(const run_config& config) {
  using namespace mc;
  report out;
  zero_per_layer(out);
  const autotune_result autotune = run_autotune_probes();

  // Set-up: instances with exact diameters and the cell plan, built
  // five times; the median is the set-up cost.
  std::vector<double> build_s;
  plan p;
  for (int i = 0; i < 5; ++i) {
    const double start = now_s();
    p = build_plan(config.seed);
    build_s.push_back(now_s() - start);
  }
  const double setup_s = autotune.ms * 1e-3 + median(build_s);

  // ---- measured phase (tracing off) --------------------------------
  tel::registry::global().reset();
  trial_clock clock;
  clock.samples.resize(p.units_per_rep);
  std::vector<an::algorithm> algos;
  for (std::size_t c = 0; c < p.cells.size(); ++c) {
    algos.push_back(timed(library_algorithm(p.cells[c].fam, *p.cells[c].inst),
                          clock, static_cast<std::uint32_t>(c)));
  }
  const std::string jsonl = config.tmp_dir + "/mc-sweep.jsonl";
  // Each rep is folded and checked as soon as it ends (outside its
  // clock), so memory stays flat however many reps run. Throughput is
  // the median over reps of each rep's rate, so a slow stretch of the
  // machine moves it less than a whole-run mean.
  check_tally tally;
  reservoir sample(kReferenceSample, derive_seed(config.seed, 0x5a3));
  std::vector<std::uint64_t> rep_digests;
  std::vector<double> trial_ms;
  std::vector<double> rep_trial_rate;
  std::vector<double> rep_node_round_rate;
  std::map<std::string, double> family_busy;
  std::map<std::string, double> family_node_rounds;
  std::uint64_t total_node_rounds = 0;
  double late_word_rounds = 0.0;
  double busy_s = 0.0;
  double wall = 0.0;
  double jsonl_mb = 0.0;
  std::size_t reps = 0;
  while (reps == 0 || wall < config.seconds) {
    clock.next.store(0);
    std::vector<trial> trials;
    const rep_stats r = run_rep(p, algos, config.seed, reps, kMcSweepWorkers,
                                jsonl, trials);
    if (!r.error.empty()) out.note("mc-sweep: rep failed: " + r.error);
    const std::size_t recorded = std::min(clock.next.load(), p.units_per_rep);
    for (std::size_t i = 0; i < recorded; ++i) {
      const trial_clock::sample& s = clock.samples[i];
      trial_ms.push_back(s.seconds * 1e3);
      busy_s += s.seconds;
      family_busy[family_key(p.cells[s.cell].fam)] += s.seconds;
    }
    const check_tally rep_tally = check_trials(p.cells, trials, {});
    tally.attempted += rep_tally.attempted;
    tally.failed += rep_tally.failed;
    std::uint64_t rep_node_rounds = 0;
    for (const trial& t : trials) {
      if (t.cell >= p.cells.size()) continue;
      const cell& c = p.cells[t.cell];
      const std::uint64_t nr = node_rounds(p, t);
      rep_node_rounds += nr;
      family_node_rounds[family_key(c.fam)] += static_cast<double>(nr);
      if (uses_fsm(c.fam) && t.outcome.rounds > kEarlyRounds) {
        late_word_rounds +=
            static_cast<double>(t.outcome.rounds - kEarlyRounds) *
            static_cast<double>((c.inst->node_count() + 63) / 64);
      }
      if (c.fam != family::id_broadcast && election_ok(t.outcome, c.horizon)) {
        sample.offer(t);
      }
    }
    rep_digests.push_back(outcome_digest(trials));
    total_node_rounds += rep_node_rounds;
    rep_trial_rate.push_back(static_cast<double>(p.units_per_rep) / r.wall_s);
    rep_node_round_rate.push_back(static_cast<double>(rep_node_rounds) /
                                  r.wall_s);
    wall += r.wall_s;
    jsonl_mb = r.jsonl_mb;
    ++reps;
  }
  const tel::registry& reg = tel::registry::global();
  const double compiled_rounds =
      static_cast<double>(reg.counter("engine_rounds_plane_compiled_total"));
  const double plane_rounds =
      compiled_rounds +
      static_cast<double>(reg.counter("engine_rounds_plane_interpreted_total"));
  const double engine_rounds =
      plane_rounds +
      static_cast<double>(reg.counter("engine_rounds_sparse_total") +
                          reg.counter("engine_rounds_virtual_total"));

  out.e2e("node_rounds_per_s", median(rep_node_round_rate), "1/s");
  out.e2e("trials_per_s", median(rep_trial_rate), "1/s");
  out.e2e("trial_ms_p50", percentile(trial_ms, 0.50), "ms");
  out.e2e("setup_s", setup_s, "s");
  out.note(format("mc-sweep: %zu reps x %zu trials (%zu trial-time samples), "
                  "%.3f s measured, %zu cells, %zu workers",
                  reps, p.units_per_rep, trial_ms.size(), wall,
                  p.cells.size(), kMcSweepWorkers));

  // ---- output checks (untimed) -------------------------------------
  // Every trial was checked after its rep; the sampled ones (which
  // passed that check) are re-run through the reference gear now.
  std::vector<std::size_t> all_sampled(sample.kept().size());
  for (std::size_t i = 0; i < all_sampled.size(); ++i) all_sampled[i] = i;
  tally.failed += check_trials(p.cells, sample.kept(), all_sampled).failed;
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.note(format("mc-sweep: checked %llu trials (%zu re-run on the reference "
                  "gear), %llu failed",
                  static_cast<unsigned long long>(tally.attempted),
                  all_sampled.size(),
                  static_cast<unsigned long long>(tally.failed)));

  if (!config.trace) return out;

  // ---- per-layer run -----------------------------------------------
  out.layer("graph.build_s", median(build_s), "s");
  out.layer("support.autotune_ms", autotune.ms, "ms");
  out.layer("support.tile_probe_words",
            static_cast<double>(autotune.tile_words), "count");
  out.layer("trial_ms_p99", percentile(trial_ms, 0.99), "ms");
  out.layer("engine.compiled_round_share",
            engine_rounds > 0 ? compiled_rounds / engine_rounds : 0.0, "ratio");
  out.layer("engine.plane_round_share",
            engine_rounds > 0 ? plane_rounds / engine_rounds : 0.0, "ratio");
  for (const family f : kFamilies) {
    const std::string key = family_key(f);
    const double busy = family_busy[key];
    out.layer("cell." + key + ".node_rounds_per_s",
              busy > 0 ? family_node_rounds[key] / busy : 0.0, "1/s");
  }
  out.layer("sweep.jsonl_mb", jsonl_mb, "MB");
  out.layer("sweep.worker_busy_frac",
            busy_s / (wall * static_cast<double>(kMcSweepWorkers)), "ratio");

  // The same reps again, traced; outcomes must match the untraced run.
  std::vector<an::algorithm> traced_algos;
  for (const cell& c : p.cells) {
    traced_algos.push_back(traced_algorithm(c.fam, *c.inst));
  }
  const std::string trace_scratch = config.tmp_dir + "/trace-chunk.json";
  double traced_wall = 0.0;
  std::uint64_t mismatched_reps = 0;
  span_summary sum;
  std::uint64_t lost_spans = 0;
  {
    trace_session session(trace_scratch, config.trace_out);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      std::vector<trial> traced;
      traced_wall +=
          run_rep(p, traced_algos, config.seed, rep, kMcSweepWorkers, jsonl,
                  traced)
              .wall_s;
      session.flush();
      if (outcome_digest(traced) != rep_digests[rep]) ++mismatched_reps;
    }
    sum = session.summary();
    lost_spans = session.lost();
  }
  out.failed = std::min(out.attempted,
                        out.failed + mismatched_reps * p.units_per_rep);
  out.note(format("mc-sweep: traced reps differing from untraced: %llu of "
                  "%zu; spans lost: %llu",
                  static_cast<unsigned long long>(mismatched_reps), reps,
                  static_cast<unsigned long long>(lost_spans)));

  // Records on vs off, on rep 0 (untraced), alternating.
  std::vector<double> with_records;
  std::vector<double> without_records;
  for (int i = 0; i < 5; ++i) {
    std::vector<trial> scratch;
    with_records.push_back(
        run_rep(p, algos, config.seed, 0, kMcSweepWorkers, jsonl, scratch)
            .wall_s);
    scratch.clear();
    without_records.push_back(
        run_rep(p, algos, config.seed, 0, kMcSweepWorkers, "", scratch)
            .wall_s);
  }
  out.layer("sweep.record_overhead_s",
            median(with_records) - median(without_records), "s");

  const double trial_total = sum.total_s("bench.trial");
  const double trial_count = static_cast<double>(sum.count("bench.trial"));
  const double round_loop =
      sum.total_s("beeping.rounds_early") + sum.total_s("beeping.rounds_late") +
      sum.total_s("beeping.generic_rounds_early") +
      sum.total_s("beeping.generic_rounds_late") +
      sum.total_s("stoneage.rounds_early") + sum.total_s("stoneage.rounds_late");
  const double machine_build = sum.total_s("core.machine_build") +
                               sum.total_s("baselines.protocol_build") +
                               sum.total_s("stoneage.automaton_build");
  const double construct =
      sum.total_s("beeping.construct") + sum.total_s("stoneage.construct");
  out.layer("engine.run_share", trial_total > 0 ? round_loop / trial_total : 0.0,
            "ratio");
  out.layer("core.machine_build_us",
            trial_count > 0 ? machine_build / trial_count * 1e6 : 0.0, "us");
  out.layer("engine.construct_us",
            trial_count > 0 ? construct / trial_count * 1e6 : 0.0, "us");

  // Late-regime cost per word on the compiled (FSM) columns.
  out.layer("engine.step_ns_per_word_late",
            late_word_rounds > 0
                ? sum.total_s("beeping.rounds_late") / late_word_rounds * 1e9
                : 0.0,
            "ns");
  const std::uint64_t reconcile_mismatches =
      reconcile_n64(out, p, config.seed, trace_scratch);
  out.failed = std::min(out.attempted, out.failed + reconcile_mismatches);
  const double untraced_rate = static_cast<double>(total_node_rounds) / wall;
  const double traced_rate =
      static_cast<double>(total_node_rounds) / traced_wall;
  out.layer("trace.overhead_frac", 1.0 - traced_rate / untraced_rate, "ratio");
  out.layer("trace.unattributed_frac", sum.unattributed_frac(), "ratio");
  add_layer_self_times(out, sum.self_s_by_layer);
  return out;
}

}  // namespace perfbench
