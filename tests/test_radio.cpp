// Radio-network substrate: reception semantics (exactly-one vs
// collision), CD equivalence with the beeping model, and BFW's
// behaviour when collisions mask beeps.
#include "radio/radio.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "beeping/engine.hpp"
#include "core/bfw.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"

namespace beepkit::radio {
namespace {

// Deterministic transmitter set: nodes from a fixed list transmit in
// round 0, nobody afterwards; heard flags are recorded.
class fixed_transmitters final : public beeping::protocol {
 public:
  explicit fixed_transmitters(std::vector<graph::node_id> who)
      : who_(std::move(who)) {}

  void reset(std::size_t node_count, support::rng&) override {
    n_ = node_count;
    round_ = 0;
    heard.assign(node_count, false);
  }
  std::size_t write_beeps(std::span<std::uint64_t> beep) const override {
    std::fill(beep.begin(), beep.end(), 0);
    if (round_ == 0) {
      for (graph::node_id w : who_) beep[w >> 6] |= 1ULL << (w & 63);
    }
    return 0;  // nobody leads
  }
  [[nodiscard]] bool is_leader(graph::node_id) const override {
    return false;
  }
  void step_round(std::span<const std::uint64_t> h,
                  const support::rng_source&) override {
    for (std::size_t u = 0; u < n_; ++u) {
      heard[u] = ((h[u >> 6] >> (u & 63)) & 1ULL) != 0;
    }
    ++round_;
  }
  [[nodiscard]] std::string describe(graph::node_id) const override {
    return "fixed";
  }
  [[nodiscard]] std::string name() const override { return "fixed"; }

  std::vector<bool> heard;

 private:
  std::vector<graph::node_id> who_;
  std::size_t n_ = 0;
  std::size_t round_ = 0;
};

TEST(RadioEngineTest, SingleTransmitterIsReceived) {
  // Star: hub 0, leaves 1..4. Leaf 1 transmits: the hub receives a
  // clean message; other leaves hear nothing (not adjacent).
  const auto g = graph::make_star(5);
  fixed_transmitters proto({1});
  engine sim(g, proto, 0, /*collision_detection=*/false);
  sim.step();
  EXPECT_EQ(sim.last_reception(0), reception::single);
  EXPECT_TRUE(proto.heard[0]);
  EXPECT_TRUE(proto.heard[1]);  // own transmission
  EXPECT_FALSE(proto.heard[2]);
  EXPECT_EQ(sim.last_reception(2), reception::silence);
}

TEST(RadioEngineTest, TwoTransmittersCollideAtTheHub) {
  const auto g = graph::make_star(5);
  for (const bool cd : {false, true}) {
    fixed_transmitters proto({1, 2});
    engine sim(g, proto, 0, cd);
    sim.step();
    EXPECT_EQ(sim.last_reception(0), reception::collision);
    // Without CD the hub hears nothing; with CD it notices energy.
    EXPECT_EQ(proto.heard[0], cd);
    // The transmitters always know they transmitted.
    EXPECT_TRUE(proto.heard[1]);
    EXPECT_TRUE(proto.heard[2]);
  }
}

TEST(RadioEngineTest, CdRadioIsBitIdenticalToBeeping) {
  // With collision detection, "single or collision" == "at least one":
  // the radio engine must replay the beeping engine exactly.
  for (const auto& gcase : beepkit::testing::standard_graph_battery()) {
    const auto g = gcase.make(9);
    const core::bfw_machine machine(0.5);
    beeping::fsm_protocol beep_proto(machine);
    beeping::fsm_protocol radio_proto(machine);
    beeping::engine beep_sim(g, beep_proto, 321);
    engine radio_sim(g, radio_proto, 321, /*collision_detection=*/true);
    for (int round = 0; round < 200; ++round) {
      ASSERT_EQ(beep_proto.states(), radio_proto.states())
          << gcase.label << " round " << round;
      beep_sim.step();
      radio_sim.step();
    }
  }
}

TEST(RadioEngineTest, NoCdDivergesFromBeeping) {
  // Without CD, masked beeps change the dynamics on any graph where
  // two neighbors of a common node can beep together. The clique makes
  // that immediate.
  const auto g = graph::make_complete(12);
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol beep_proto(machine);
  beeping::fsm_protocol radio_proto(machine);
  beeping::engine beep_sim(g, beep_proto, 7);
  engine radio_sim(g, radio_proto, 7, /*collision_detection=*/false);
  bool diverged = false;
  for (int round = 0; round < 100 && !diverged; ++round) {
    beep_sim.step();
    radio_sim.step();
    diverged = beep_proto.states() != radio_proto.states();
  }
  EXPECT_TRUE(diverged);
}

TEST(RadioEngineTest, BfwStillElectsOnCliqueWithoutCd) {
  // On the clique, rounds with exactly one beeper eliminate every
  // other waiting leader at once; such rounds keep occurring, so the
  // election still completes (though Lemma 9 is no longer guaranteed
  // in general - see the bench).
  const auto g = graph::make_complete(16);
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  engine sim(g, proto, 3, /*collision_detection=*/false);
  const auto result = sim.run_until_single_leader(200000);
  EXPECT_TRUE(result.converged);
  EXPECT_GE(sim.leader_count(), 1U);
}

TEST(RadioEngineTest, MaskedRelaysCanKillAllLeaders) {
  // Collisions act like erasures: desynchronized echoes can eliminate
  // the last leader - impossible in the beeping model (Lemma 9).
  // Count extinctions across seeds on a graph with enough collisions.
  int extinct = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto g = graph::make_grid(4, 4);
    const core::bfw_machine machine(0.5);
    beeping::fsm_protocol proto(machine);
    engine sim(g, proto, seed, /*collision_detection=*/false);
    for (int round = 0; round < 30000; ++round) {
      sim.step();
      if (sim.leader_count() == 0) {
        ++extinct;
        break;
      }
    }
  }
  EXPECT_GT(extinct, 0)
      << "no-CD radio should occasionally self-destruct like a lossy channel";
}

TEST(RadioEngineTest, RunUntilAndBookkeeping) {
  const auto g = graph::make_path(6);
  const core::bfw_machine machine(0.5);
  beeping::fsm_protocol proto(machine);
  engine sim(g, proto, 5, true);
  EXPECT_TRUE(sim.collision_detection());
  EXPECT_EQ(sim.round(), 0U);
  EXPECT_EQ(sim.leader_count(), 6U);
  const auto result = sim.run_until_single_leader(1000000);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(sim.sole_leader(), 6U);
}

}  // namespace
}  // namespace beepkit::radio
