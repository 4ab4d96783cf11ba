// BFW embedded in the synchronous stone-age model (paper Section 1:
// "Our algorithm can also be implemented in a synchronous version of
// the stone-age model").
//
// Alphabet {silent, beep}; counting threshold b = 1 suffices because
// BFW only ever asks "did at least one neighbor beep?". A node knows
// its own state, so "I beeped myself" needs no channel. The automaton
// below is the exact image of bfw_machine: with coupled coins the two
// simulations produce identical trajectories (tested in
// tests/test_stoneage.cpp and benched in E12).
#pragma once

#include "core/bfw.hpp"
#include "stoneage/stoneage.hpp"

namespace beepkit::core {

/// Alphabet symbols of the embedding.
inline constexpr stoneage::symbol stone_silent = 0;
inline constexpr stoneage::symbol stone_beep = 1;

class bfw_stone_automaton final : public stoneage::automaton {
 public:
  /// Same parameter contract as bfw_machine.
  explicit bfw_stone_automaton(double p) : machine_(p) {}

  [[nodiscard]] std::size_t state_count() const override {
    return bfw_state_count;
  }
  [[nodiscard]] std::size_t alphabet_size() const override { return 2; }
  [[nodiscard]] stoneage::state_id initial_state() const override {
    return machine_.initial_state();
  }
  [[nodiscard]] stoneage::symbol display(
      stoneage::state_id state) const override {
    return machine_.beeps(state) ? stone_beep : stone_silent;
  }
  [[nodiscard]] bool is_leader(stoneage::state_id state) const override {
    return machine_.is_leader(state);
  }
  [[nodiscard]] stoneage::state_id transition(
      stoneage::state_id state, std::span<const std::uint32_t> counts,
      support::node_stream rng) const override {
    // delta_top applies iff the node itself beeps or >=1 neighbor
    // displays `beep` (with b = 1 the clipped count is exactly that
    // indicator).
    const bool heard = machine_.beeps(state) || counts[stone_beep] > 0;
    return heard ? machine_.delta_top(state, rng)
                 : machine_.delta_bot(state, rng);
  }
  [[nodiscard]] std::string state_name(
      stoneage::state_id state) const override {
    return machine_.state_name(state);
  }
  [[nodiscard]] std::string name() const override {
    return "StoneAge-" + machine_.name();
  }

  /// Fast-path hook: this automaton is exactly bfw_machine behind a
  /// two-symbol display, so the stone-age engine can run BFW's compiled
  /// table (alphabet layout matches stone_silent/stone_beep above).
  [[nodiscard]] const beeping::state_machine* beep_machine() const override {
    return &machine_;
  }

  [[nodiscard]] double p() const noexcept { return machine_.p(); }

 private:
  bfw_machine machine_;
};

}  // namespace beepkit::core
