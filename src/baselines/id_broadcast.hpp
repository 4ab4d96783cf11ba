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
//
// Representation: all nodes move through the phases in lockstep, so
// the round within the phase, the bit index and the finished flag are
// scalars, and the per-node flags are packed node sets (bit u of word
// u/64 is node u). The identifiers are transposed once, in reset, into
// one bit-plane per ID bit, so a round is a handful of word ops per 64
// nodes.
#pragma once

#include <cstdint>
#include <span>
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
  std::size_t write_beeps(std::span<std::uint64_t> beep) const override;
  void step_round(std::span<const std::uint64_t> heard,
                  const support::rng_source& rngs) override;
  [[nodiscard]] bool is_leader(graph::node_id node) const override;
  [[nodiscard]] std::string describe(graph::node_id node) const override;
  [[nodiscard]] std::string name() const override;

  /// Total rounds after which the algorithm has terminated:
  /// bits * (D + 1).
  [[nodiscard]] std::uint64_t termination_round() const noexcept {
    return static_cast<std::uint64_t>(total_bits_) * (diameter_bound_ + 1);
  }
  [[nodiscard]] std::uint64_t id_of(graph::node_id node) const {
    return ids_[node];
  }
  [[nodiscard]] std::uint32_t bits() const noexcept { return total_bits_; }

 private:
  // The current round's beep set is, word by word,
  //   relay_pending_ | (candidate_ & current_id_plane() & initiating()):
  // this phase's relays plus, in round 0 of a phase, the candidates
  // whose current ID bit is 1.
  [[nodiscard]] std::uint64_t initiating() const noexcept {
    return round_in_phase_ == 0 && !finished_ ? ~0ULL : 0;
  }
  [[nodiscard]] const std::uint64_t* current_id_plane() const noexcept {
    return id_planes_.data() + std::size_t{bit_index_} * words_;
  }

  std::uint32_t diameter_bound_;
  std::uint32_t total_bits_ = 1;
  std::uint32_t bit_index_ = 0;       ///< Counts down from total_bits-1.
  std::uint32_t round_in_phase_ = 0;  ///< 0..diameter_bound.
  bool finished_ = false;
  std::size_t words_ = 0;
  std::vector<std::size_t> ids_;
  /// Bit k of every node's ID, words_ words per plane, plane k at
  /// offset k * words_.
  std::vector<std::uint64_t> id_planes_;
  std::vector<std::uint64_t> candidate_;
  std::vector<std::uint64_t> heard_this_phase_;
  /// Nodes that relay this phase's wave in the current round. No
  /// "already relayed" set is needed: a node relays only on its first
  /// contact of the phase, and contact sets heard_this_phase_, which
  /// is cleared only when the phase ends.
  std::vector<std::uint64_t> relay_pending_;
};

}  // namespace beepkit::baselines
