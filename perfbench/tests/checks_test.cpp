// Self-test of perfbench's output checks: a clean outcome passes and a
// deliberately corrupted one is counted as a failure, for each
// workload's check. It also checks the traced run's self-time fold on
// a hand-written trace. Plain executable (no test framework); exits 1
// if any expectation fails.
//
//   perfbench_checks_test [scratch-dir]
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "core/giant.hpp"
#include "graph/generators.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

namespace an = beepkit::analysis;
namespace core = beepkit::core;
namespace graph = beepkit::graph;
using namespace perfbench;

int failures = 0;

void expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

void mc_sweep_checks() {
  const an::instance inst = an::make_instance(graph::make_path(24));
  const std::uint64_t horizon =
      8 * core::default_horizon(inst.g, inst.diameter);
  std::vector<mc::cell> cells;
  for (const mc::family f : mc::kFamilies) {
    cells.push_back({&inst, f, 3, horizon});
  }
  std::vector<mc::trial> trials;
  std::vector<std::size_t> sample;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const an::algorithm algo = mc::library_algorithm(cells[c].fam, inst);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      if (cells[c].fam != mc::family::id_broadcast) {
        sample.push_back(trials.size());
      }
      trials.push_back({c, seed, algo.run(inst.view(), seed, horizon)});
    }
  }
  check_tally clean = mc::check_trials(cells, trials, sample);
  expect(clean.attempted == trials.size() && clean.failed == 0,
         "mc-sweep: clean trials pass, reference gear agrees");

  // A wrong leader is only visible to the reference re-run.
  std::vector<mc::trial> corrupted = trials;
  corrupted[0].outcome.leader += 1;
  expect(mc::check_trials(cells, corrupted, sample).failed == 1,
         "mc-sweep: a corrupted leader fails the reference comparison");
  expect(mc::check_trials(cells, corrupted, {}).failed == 0,
         "mc-sweep: unsampled leader corruption is invisible to the basic check");
  // Two leaders at the end is a failed election.
  corrupted = trials;
  corrupted.back().outcome.final_leader_count = 2;
  corrupted.back().outcome.converged = false;
  expect(mc::check_trials(cells, corrupted, {}).failed == 1,
         "mc-sweep: an unconverged trial fails");
  // Past the horizon.
  corrupted = trials;
  corrupted[4].outcome.rounds = horizon + 1;
  expect(mc::check_trials(cells, corrupted, {}).failed == 1,
         "mc-sweep: a trial past its horizon fails");
}

void xl_early_checks() {
  const graph::graph g = graph::make_grid(32, 64);
  const engine_state tiled = xl::step_bfw(g, 9, 64, 4);
  const engine_state serial = xl::step_bfw(g, 9, 64, 1);
  expect(tiled == serial, "xl-early: tiled engine equals serial engine");
  engine_state corrupted = tiled;
  corrupted.coins += 1;
  expect(!(corrupted == serial), "xl-early: a corrupted coin total differs");
  corrupted = tiled;
  corrupted.leaders += 1;
  expect(!(corrupted == serial), "xl-early: a corrupted leader count differs");
}

void giant_checks(const std::string& dir) {
  const auto view = graph::topology_view::parse("grid:64x64");
  const core::bfw_machine machine(0.5);
  const std::string journal = dir + "/perfbench-selftest-journal.jsonl";
  std::filesystem::remove(journal);

  core::giant_options kill;
  kill.checkpoint_path = journal;
  kill.checkpoint_every = 6;
  kill.stop_after_round = 8;
  const core::giant_result stop =
      core::run_giant_trial(*view, machine, 5, kill);
  expect(giant_stop_ok(stop, 8, 2), "giant: kill segment stops with 2 snapshots");
  expect(!giant_stop_ok(stop, 9, 2), "giant: wrong stop round fails");

  core::giant_options resume;
  resume.checkpoint_path = journal;
  resume.resume = true;
  resume.max_rounds = 16;
  const core::giant_result more =
      core::run_giant_trial(*view, machine, 5, resume);
  expect(giant_resume_ok(stop, more, 16), "giant: resume restarts at the stop");
  core::giant_result corrupted = more;
  corrupted.leaders = stop.leaders + 1;
  expect(!giant_resume_ok(stop, corrupted, 16),
         "giant: a resume that raises the leader count fails");
  corrupted = more;
  corrupted.start_round = 0;
  expect(!giant_resume_ok(stop, corrupted, 16),
         "giant: a resume that did not start at the stop round fails");

  // Corrupt the journal's last digest: the resume must refuse it
  // (and the benchmark counts a thrown resume as a failed segment).
  std::string text;
  {
    std::ifstream in(journal);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::size_t at = text.rfind("\"digest\":");
  expect(at != std::string::npos, "giant: journal carries a digest");
  if (at != std::string::npos) {
    std::size_t digit = at + 9;
    text[digit] = text[digit] == '1' ? '2' : '1';
    std::ofstream(journal, std::ios::trunc) << text;
    bool threw = false;
    try {
      (void)core::run_giant_trial(*view, machine, 5, resume);
    } catch (const std::exception&) {
      threw = true;
    }
    expect(threw, "giant: a corrupted digest is rejected on resume");
  }
  std::filesystem::remove(journal);
}

bool near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

void span_fold_checks(const std::string& dir) {
  // Thread 1: bench.trial [0, 100) holding core.machine_build [10, 30)
  // and beeping.construct [30, 80), which holds an engine round
  // [40, 50). Thread 2: a lone bench.trial [0, 40). The sweep's own
  // trial span is left out. Times in microseconds.
  const std::string path = dir + "/perfbench-selftest-trace.json";
  std::ofstream(path, std::ios::trunc)
      << R"({"traceEvents":[)"
      << R"({"name":"beeping.construct","cat":"beeping","ph":"X","ts":30,"dur":50,"pid":1,"tid":1},)"
      << R"({"name":"bench.trial","cat":"bench","ph":"X","ts":0,"dur":100,"pid":1,"tid":1},)"
      << R"({"name":"round","cat":"engine","ph":"X","ts":40,"dur":10,"pid":1,"tid":1},)"
      << R"({"name":"core.machine_build","cat":"core","ph":"X","ts":10,"dur":20,"pid":1,"tid":1},)"
      << R"({"name":"trial","cat":"sweep","ph":"X","ts":1,"dur":99,"pid":1,"tid":1},)"
      << R"({"name":"bench.trial","cat":"bench","ph":"X","ts":0,"dur":40,"pid":1,"tid":2}]})";
  span_summary sum;
  expect(sum.add_chrome_trace(path), "spans: a Chrome trace is read back");
  expect(near(sum.self_s("bench.trial"), 70e-6),
         "spans: self time subtracts same-thread children only");
  expect(near(sum.total_s("bench.trial"), 140e-6) &&
             sum.count("bench.trial") == 2,
         "spans: totals and counts add across threads");
  expect(near(sum.self_s("beeping.construct"), 40e-6),
         "spans: nested children are subtracted from their own parent");
  expect(near(sum.self_s_by_layer["beeping"], 50e-6) &&
             near(sum.self_s_by_layer["core"], 20e-6),
         "spans: engine spans count as the beeping layer");
  expect(sum.count("trial") == 0, "spans: the sweep's trial span is left out");
  expect(near(sum.traced_s, 140e-6) && near(sum.unattributed_frac(), 0.5),
         "spans: unattributed share is bench self time over all self time");
  std::filesystem::remove(path);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir =
      argc > 1 ? argv[1] : std::filesystem::temp_directory_path().string();
  mc_sweep_checks();
  xl_early_checks();
  giant_checks(dir);
  span_fold_checks(dir);
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_checks_test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench_checks_test: all checks passed\n");
  return 0;
}
