// Randomized cross-checks ("fuzz" suite): random graphs x random
// protocol parameters, with every paper invariant armed. These runs
// use seeds derived from the parameterized trial index, so failures
// are reproducible; the point is breadth - configurations no
// hand-written test would pick.
#include <gtest/gtest.h>

#include "beeping/engine.hpp"
#include "core/adversarial.hpp"
#include "core/bfw.hpp"
#include "core/convergence.hpp"
#include "core/invariants.hpp"
#include "core/timeout_bfw.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "radio/radio.hpp"

namespace beepkit {
namespace {

// Draws a random connected graph of a random family (n in [2, 60]).
graph::graph random_graph(support::rng& rng) {
  const std::size_t n = 2 + rng.uniform_below(59);
  switch (rng.uniform_below(8)) {
    case 0:
      return graph::make_path(n);
    case 1:
      return graph::make_cycle(std::max<std::size_t>(3, n));
    case 2:
      return graph::make_star(std::max<std::size_t>(2, n));
    case 3:
      return graph::make_complete(std::min<std::size_t>(n, 24));
    case 4:
      return graph::make_random_tree(n, rng);
    case 5:
      return graph::make_erdos_renyi_connected(n, 0.15, rng);
    case 6: {
      const std::size_t side = 2 + rng.uniform_below(6);
      return graph::make_grid(side, 1 + n / side);
    }
    default:
      return graph::make_caterpillar(std::max<std::size_t>(1, n / 4),
                                     rng.uniform_below(4));
  }
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, RandomGraphRandomPFullInvariants) {
  support::rng rng(0xf022 + static_cast<std::uint64_t>(GetParam()) * 7919);
  const auto g = random_graph(rng);
  const double p = 0.02 + 0.96 * rng.uniform01();

  const core::bfw_machine machine(p);
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, rng.next_u64());
  core::invariant_options options;
  options.check_lemma11 = g.node_count() <= 40;
  options.check_lemma12 = g.node_count() <= 40;
  core::invariant_checker checker(g, proto, options);
  sim.add_observer(&checker);

  sim.run_rounds(300);
  EXPECT_TRUE(checker.ok())
      << g.name() << " p=" << p << ": " << checker.violations().front();
  EXPECT_GE(sim.leader_count(), 1U);
}

TEST_P(FuzzTest, ObserversDoNotPerturbDynamics) {
  support::rng rng(0x0b5e + static_cast<std::uint64_t>(GetParam()) * 104729);
  const auto g = random_graph(rng);
  const std::uint64_t seed = rng.next_u64();

  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol bare_proto(machine);
  beeping::engine bare(g, bare_proto, seed);
  bare.run_rounds(150);

  beeping::fsm_protocol watched_proto(machine);
  beeping::engine watched(g, watched_proto, seed);
  core::invariant_checker checker(g, watched_proto,
                                  core::invariant_options{});
  watched.add_observer(&checker);
  watched.run_rounds(150);

  EXPECT_EQ(bare_proto.states(), watched_proto.states()) << g.name();
  EXPECT_EQ(bare.total_coins_consumed(), watched.total_coins_consumed());
}

TEST_P(FuzzTest, RadioWithCdReplaysBeeping) {
  support::rng rng(0x2ad1 + static_cast<std::uint64_t>(GetParam()) * 31337);
  const auto g = random_graph(rng);
  const std::uint64_t seed = rng.next_u64();

  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol a(machine);
  beeping::fsm_protocol b(machine);
  beeping::engine beep(g, a, seed);
  radio::engine rad(g, b, seed, /*collision_detection=*/true);
  for (int round = 0; round < 120; ++round) {
    ASSERT_EQ(a.states(), b.states()) << g.name() << " round " << round;
    beep.step();
    rad.step();
  }
}

TEST_P(FuzzTest, RandomInitialLeaderSetsStillElect) {
  support::rng rng(0x1eadULL + static_cast<std::uint64_t>(GetParam()) * 271);
  const auto g = random_graph(rng);
  const std::size_t k = 1 + rng.uniform_below(g.node_count());
  const auto initial =
      core::random_leader_configuration(g.node_count(), k, rng);

  const auto diameter = graph::diameter_exact(g);
  const auto outcome = core::run_election(
      g, core::bfw_machine(0.5), rng.next_u64(),
      {.max_rounds = 4 * core::default_horizon(g, diameter),
       .initial = initial});
  EXPECT_TRUE(outcome.converged) << g.name() << " k=" << k;
  EXPECT_EQ(outcome.final_leader_count, 1U);
}

TEST_P(FuzzTest, TimeoutVariantNeverGoesLeaderlessFromEq2Start) {
  // From the legitimate start, timeout-BFW may *gain* leaders via
  // reboots but - like BFW - can only lose a leader to a real wave:
  // it must never hit zero.
  support::rng rng(0x70ULL + static_cast<std::uint64_t>(GetParam()) * 631);
  const auto g = random_graph(rng);
  const core::timeout_bfw_machine machine(
      0.5, 8 + static_cast<std::uint32_t>(rng.uniform_below(32)));
  beeping::fsm_protocol proto(machine);
  beeping::engine sim(g, proto, rng.next_u64());
  for (int round = 0; round < 400; ++round) {
    sim.step();
    ASSERT_GE(sim.leader_count(), 1U) << g.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace beepkit
