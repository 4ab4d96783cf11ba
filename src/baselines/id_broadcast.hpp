// Unique-ID beep-wave election - the representative of the Table 1
// baseline class [14]/[11] (Foerster-Seidel-Wattenhofer 2014;
// Dufoulon-Burman-Beauquier 2018).
//
// Mechanism (the one those algorithms share): nodes hold unique
// identifiers of L = ceil(log2 n) bits and eliminate candidates by
// broadcasting the bits of the maximum surviving ID from the most
// significant down. Time is divided into L phases of D+1 rounds:
//
//   round 0 of phase k : every surviving candidate whose k-th bit is 1
//                        beeps (initiates a wave);
//   rounds 1..D        : a node that hears its first beep of the phase
//                        relays it exactly once in the next round, so
//                        the wave floods the graph in <= D rounds and
//                        then dies;
//   end of phase       : a candidate whose k-th bit is 0 and that
//                        heard a wave withdraws - some surviving
//                        candidate has a larger ID.
//
// After L phases exactly the maximum-ID node survives: deterministic
// safety, termination detection by round counting, O(D log n) rounds -
// at the price of unique IDs, Theta(log n) memory bits per node, and
// knowledge of both n and D. That price is precisely what the paper's
// six-state BFW refuses to pay (Table 1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "beeping/protocol.hpp"

namespace beepkit::baselines {

class id_broadcast_election final : public beeping::protocol {
 public:
  /// `diameter_bound` must be >= the true diameter of the network the
  /// protocol will run on (the algorithm class assumes knowledge of D).
  explicit id_broadcast_election(std::uint32_t diameter_bound);

  void reset(std::size_t node_count, support::rng& init_rng) override;
  [[nodiscard]] bool beeping(graph::node_id node) const override;
  [[nodiscard]] bool is_leader(graph::node_id node) const override;
  void step(graph::node_id node, bool heard,
            support::node_stream node_rng) override;
  [[nodiscard]] std::string describe(graph::node_id node) const override;
  [[nodiscard]] std::string name() const override;

  /// Total rounds after which the algorithm has terminated:
  /// bits * (D + 1).
  [[nodiscard]] std::uint64_t termination_round() const noexcept {
    return static_cast<std::uint64_t>(total_bits_) * (diameter_bound_ + 1);
  }
  [[nodiscard]] std::uint64_t id_of(graph::node_id node) const {
    return nodes_[node].id;
  }
  [[nodiscard]] std::uint32_t bits() const noexcept { return total_bits_; }

 private:
  struct node_state {
    std::uint64_t id = 0;
    bool candidate = true;
    bool heard_this_phase = false;
    bool relay_pending = false;
    bool relayed = false;
    std::uint32_t bit_index = 0;      ///< Counts down from total_bits-1.
    std::uint32_t round_in_phase = 0; ///< 0..diameter_bound.
    bool finished = false;
  };

  [[nodiscard]] bool initiates(const node_state& s) const noexcept;

  std::uint32_t diameter_bound_;
  std::uint32_t total_bits_ = 1;
  std::vector<node_state> nodes_;
};

}  // namespace beepkit::baselines
