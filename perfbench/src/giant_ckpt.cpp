// giant-ckpt: one giant election on the implicit grid:8192x8192 (67M
// nodes) with 4 tiled workers (L2-sized tiles, see kTileWords), killed
// and resumed. A cycle runs
//   kill:   run_giant_trial from round 0, a snapshot every kEvery
//           rounds, stopped (with a forced snapshot) at kStopRound;
//   resume: a second call resumes from that journal and runs
//           kMoreRounds more rounds;
// and, in the per-layer run's first cycle, outside the cycle's clock, a
// resume that only returns the trial to its stop round (resume_s). The
// journal is deleted after every cycle. Snapshots and the resume scan
// that reads them back dominate a cycle, so cycles cannot be short:
// a cycle takes 18-35 s on 4 vCPUs, so a 20 s run measures one or two.
#include <algorithm>
#include <filesystem>
#include <optional>

#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "core/giant.hpp"
#include "support/parallel.hpp"
#include "spans.hpp"
#include "support/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace an = beepkit::analysis;
namespace bp = beepkit::beeping;
namespace core = beepkit::core;
namespace graph = beepkit::graph;
namespace tel = beepkit::support::telemetry;

namespace {

constexpr std::size_t kSide = 8192;
constexpr std::uint64_t kEvery = 64;
constexpr std::uint64_t kStopRound = 224;
constexpr std::uint64_t kMoreRounds = 96;
/// Three periodic snapshots (rounds 64, 128 and 192) plus the forced
/// one at the stop.
constexpr std::uint64_t kSnapshots = kStopRound / kEvery + 1;
/// Tile size of the giant rounds: L2-sized tiles, one of the two
/// candidates of the process-wide tile probe. The probe is a timing race
/// decided once per process and picks either; on this 2^20-word engine
/// the 64-round kill segment without a journal took 5.2-5.4 s with L2
/// tiles against 5.8-6.7 s with the whole-range split (4 vCPUs), so
/// leaving the choice to the race would make runs bimodal. The probe's
/// own choice is reported as support.tile_probe_words.
constexpr std::size_t kTileWords = beepkit::support::kL2TileWords;

an::instance giant_instance() {
  return an::make_implicit_instance({graph::topology::kind::grid, kSide, kSide});
}

/// A giant engine as run_giant_trial builds it, before any round.
void construct_giant_engine(const graph::topology_view& view,
                            std::uint64_t seed) {
  const core::bfw_machine machine(0.5);
  bp::fsm_protocol proto(machine);
  bp::engine sim(view, proto, seed, bp::noise_model{},
                 bp::engine_config::giant());
  sim.set_parallelism(kGiantThreads, kTileWords);
}

struct segment {
  double seconds = 0.0;
  core::giant_result result;
  bool threw = false;
};

segment run_segment(const graph::topology_view& view, std::uint64_t seed,
                    const core::giant_options& options,
                    const char* span_name) {
  segment seg;
  const core::bfw_machine machine(0.5);
  const double start = now_s();
  try {
    tel::scoped_span s(span_name, "core");
    seg.result = core::run_giant_trial(view, machine, seed, options);
  } catch (const std::exception&) {
    seg.threw = true;
  }
  seg.seconds = now_s() - start;
  return seg;
}

struct cycle {
  segment kill;
  std::optional<segment> to_stop;  ///< First cycle of a per-layer run.
  segment more;
  double journal_mb = 0.0;

  [[nodiscard]] double wall_s() const { return kill.seconds + more.seconds; }
  [[nodiscard]] bool same_outcome(const cycle& other) const {
    const auto same = [](const core::giant_result& a,
                         const core::giant_result& b) {
      return a.rounds == b.rounds && a.leaders == b.leaders &&
             a.draws == b.draws && a.leader == b.leader &&
             a.start_round == b.start_round;
    };
    return same(kill.result, other.kill.result) &&
           same(more.result, other.more.result);
  }
};

cycle run_cycle(const graph::topology_view& view, std::uint64_t seed,
                const std::string& journal, bool time_resume) {
  tel::scoped_span span("bench.cycle", "bench");
  cycle c;
  core::giant_options kill;
  kill.checkpoint_path = journal;
  kill.checkpoint_every = kEvery;
  kill.stop_after_round = kStopRound;
  kill.threads = kGiantThreads;
  kill.tile_words = kTileWords;
  c.kill = run_segment(view, seed, kill, "core.giant_kill_segment");
  c.journal_mb = file_mb(journal);

  core::giant_options resume;
  resume.checkpoint_path = journal;
  resume.resume = true;
  resume.threads = kGiantThreads;
  resume.tile_words = kTileWords;
  if (time_resume) {
    resume.max_rounds = kStopRound;
    c.to_stop =
        run_segment(view, seed, resume, "core.giant_resume_to_stop");
  }
  resume.max_rounds = kStopRound + kMoreRounds;
  c.more = run_segment(view, seed, resume, "core.giant_resume_more");
  {
    tel::scoped_span s("support.journal_remove", "support");
    std::error_code ignored;
    std::filesystem::remove(journal, ignored);
  }
  return c;
}

double node_rounds(const cycle& c, double n) {
  const double more_rounds =
      c.more.result.rounds > c.more.result.start_round
          ? static_cast<double>(c.more.result.rounds -
                                c.more.result.start_round)
          : 0.0;
  return n * (static_cast<double>(c.kill.result.rounds) + more_rounds);
}

}  // namespace

report run_giant_ckpt(const run_config& config) {
  report out;
  zero_per_layer(out);
  const autotune_result autotune = run_autotune_probes();

  // Set-up, five times: the implicit instance (formula diameter) and a
  // giant engine (lazy cursors, plane arena, pinned planes, tiling).
  std::vector<double> setup_s;
  std::vector<double> construct_s;
  std::optional<an::instance> inst;
  for (int i = 0; i < 5; ++i) {
    const double start = now_s();
    inst.reset();
    inst.emplace(giant_instance());
    const double built = now_s();
    construct_giant_engine(inst->view(), config.seed);
    construct_s.push_back(now_s() - built);
    setup_s.push_back(now_s() - start);
  }
  const graph::topology_view view = inst->view();
  const double n = static_cast<double>(view.node_count());
  const std::string journal = config.tmp_dir + "/giant-journal.jsonl";

  // ---- measured phase (tracing off) --------------------------------
  std::vector<cycle> cycles;
  double wall = 0.0;
  while (cycles.empty() || wall < config.seconds) {
    cycles.push_back(run_cycle(view,
                               derive_seed(config.seed, 200 + cycles.size()),
                               journal, config.trace && cycles.empty()));
    wall += cycles.back().wall_s();
  }
  std::vector<double> trial_ms;
  std::vector<double> resume_s;
  double total_node_rounds = 0.0;
  for (const cycle& c : cycles) {
    trial_ms.push_back(c.wall_s() * 1e3);
    if (c.to_stop) resume_s.push_back(c.to_stop->seconds);
    total_node_rounds += node_rounds(c, n);
  }
  out.e2e("node_rounds_per_s", total_node_rounds / wall, "1/s");
  out.e2e("trials_per_s", static_cast<double>(cycles.size()) / wall, "1/s");
  out.e2e("trial_ms_p50", percentile(trial_ms, 0.50), "ms");
  out.e2e("setup_s", autotune.ms * 1e-3 + median(setup_s), "s");
  out.note(format("giant-ckpt: %zu kill/resume cycles on %s (%.0f nodes), "
                  "stop at %llu, snapshot every %llu, %llu more rounds; "
                  "%.3f s measured; journal %.1f MB",
                  cycles.size(), view.name().c_str(), n,
                  static_cast<unsigned long long>(kStopRound),
                  static_cast<unsigned long long>(kEvery),
                  static_cast<unsigned long long>(kMoreRounds), wall,
                  cycles.front().journal_mb));

  // ---- output checks (untimed) -------------------------------------
  // Each segment is a unit: the kill stopped at its round with its
  // snapshots; the resumes verified the journal digest (or threw),
  // restarted at the stop round and never raised the leader count.
  check_tally tally;
  for (const cycle& c : cycles) {
    tally.add(!c.kill.threw &&
              giant_stop_ok(c.kill.result, kStopRound, kSnapshots));
    if (c.to_stop) {
      tally.add(!c.kill.threw && !c.to_stop->threw &&
                giant_resume_ok(c.kill.result, c.to_stop->result, kStopRound));
    }
    tally.add(!c.kill.threw && !c.more.threw &&
              giant_resume_ok(c.kill.result, c.more.result,
                              kStopRound + kMoreRounds));
  }
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.note(format("giant-ckpt: checked %llu segments, %llu failed",
                  static_cast<unsigned long long>(tally.attempted),
                  static_cast<unsigned long long>(tally.failed)));

  if (!config.trace) return out;

  // ---- per-layer run -----------------------------------------------
  // The first cycle again, traced (one cycle keeps the per-layer run
  // well inside its time limit on a slow host); its outcome must match.
  double traced_wall = 0.0;
  std::uint64_t mismatches = 0;
  segment plain;
  span_summary sum;
  std::uint64_t lost_spans = 0;
  {
    trace_session session(config.tmp_dir + "/trace-chunk.json",
                          config.trace_out);
    const cycle c =
        run_cycle(view, derive_seed(config.seed, 200), journal, false);
    session.flush();
    traced_wall = c.wall_s();
    if (!c.same_outcome(cycles.front())) ++mismatches;
    // The kill segment once more without a journal: rounds alone.
    core::giant_options no_journal;
    no_journal.stop_after_round = kStopRound;
    no_journal.threads = kGiantThreads;
    no_journal.tile_words = kTileWords;
    plain = run_segment(view, derive_seed(config.seed, 200), no_journal,
                        "core.giant_rounds_no_ckpt");
    session.flush();
    sum = session.summary();
    lost_spans = session.lost();
  }
  out.failed = std::min(out.attempted, out.failed + mismatches);
  out.note(format("giant-ckpt: traced cycles differing from untraced: %llu; "
                  "spans lost: %llu",
                  static_cast<unsigned long long>(mismatches),
                  static_cast<unsigned long long>(lost_spans)));

  std::vector<double> kill_s;
  for (const cycle& c : cycles) kill_s.push_back(c.kill.seconds);
  const double snapshots = static_cast<double>(kSnapshots);
  out.layer("support.autotune_ms", autotune.ms, "ms");
  out.layer("support.tile_probe_words",
            static_cast<double>(autotune.tile_words), "count");
  out.layer("engine.construct_us", median(construct_s) * 1e6, "us");
  out.layer("engine.arena_mb",
            static_cast<double>(cycles.front().kill.result.arena_bytes) /
                (1024.0 * 1024.0),
            "MB");
  out.layer("giant.rounds_s", plain.seconds, "s");
  out.layer("giant.ckpt_s", (median(kill_s) - plain.seconds) / snapshots, "s");
  out.layer("giant.ckpt_mb", cycles.front().journal_mb / snapshots, "MB");
  out.layer("resume_s", median(resume_s), "s");
  out.note(format("giant-ckpt: resume_s %.3f (back at round %llu)",
                  median(resume_s),
                  static_cast<unsigned long long>(kStopRound)));
  out.layer("giant.resume_scan_s", median(resume_s) - median(construct_s),
            "s");
  out.layer("trace.overhead_frac",
            1.0 - cycles.front().wall_s() / traced_wall, "ratio");
  out.layer("trace.unattributed_frac", sum.unattributed_frac(), "ratio");
  add_layer_self_times(out, sum.self_s_by_layer);
  return out;
}

}  // namespace perfbench
