// Algorithm BFW (paper Section 1.2, Figure 1): the six-state, uniform,
// anonymous leader-election protocol that is this paper's contribution.
//
// States: {W•, B•, F•} for leaders and {W◦, B◦, F◦} for non-leaders,
// where W = Waiting, B = Beeping, F = Frozen. Every node starts in W•
// (all nodes are initially leaders). Transitions (Figure 1):
//
//   delta_bot(W•) = B• with probability p, W• otherwise   (the only coin)
//   delta_top(W•) = B◦   - a non-frozen leader hearing a beep is
//                          eliminated and beeps once in the next round
//   B• -> F•, B◦ -> F◦   - after beeping, freeze for exactly one round
//   F• -> W•, F◦ -> W◦   - frozen nodes ignore the environment
//   delta_bot(W◦) = W◦, delta_top(W◦) = B◦  - non-leaders relay waves
//
// The leader set of Definition 1 is L = {W•, B•, F•}; the beeping set
// is Q_beep = {B•, B◦}. With p = 1/2 the coin in delta_bot(W•) is drawn
// through rng::coin(), so the "one fair random bit per round" accounting
// of Section 1.3 is measurable.
//
// The transition structure lives in `bfw_spec` (core/protocol_spec.hpp);
// this class is the spec built through `spec_machine`, kept as a
// named type for its enum, accessors and call sites.
#pragma once

#include <string>

#include "beeping/protocol.hpp"
#include "core/protocol_spec.hpp"

namespace beepkit::core {

/// The six BFW states, indexed as the paper lists them.
enum class bfw_state : beeping::state_id {
  leader_wait = 0,     ///< W• (the initial state q_s)
  leader_beep = 1,     ///< B•
  leader_frozen = 2,   ///< F•
  follower_wait = 3,   ///< W◦
  follower_beep = 4,   ///< B◦
  follower_frozen = 5, ///< F◦
};

inline constexpr std::size_t bfw_state_count = 6;

/// Classification helpers matching the paper's W_t / B_t / F_t sets.
[[nodiscard]] constexpr bool bfw_is_waiting(beeping::state_id s) noexcept {
  return s == static_cast<beeping::state_id>(bfw_state::leader_wait) ||
         s == static_cast<beeping::state_id>(bfw_state::follower_wait);
}
[[nodiscard]] constexpr bool bfw_is_beeping(beeping::state_id s) noexcept {
  return s == static_cast<beeping::state_id>(bfw_state::leader_beep) ||
         s == static_cast<beeping::state_id>(bfw_state::follower_beep);
}
[[nodiscard]] constexpr bool bfw_is_frozen(beeping::state_id s) noexcept {
  return s == static_cast<beeping::state_id>(bfw_state::leader_frozen) ||
         s == static_cast<beeping::state_id>(bfw_state::follower_frozen);
}
[[nodiscard]] constexpr bool bfw_is_leader_state(
    beeping::state_id s) noexcept {
  return s <= static_cast<beeping::state_id>(bfw_state::leader_frozen);
}

/// BFW as the paper's probabilistic state machine. Uniform: `p` is a
/// constant in (0, 1) independent of the network (Theorem 2 uses any
/// such constant; Theorem 3 instantiates p = 1/(D+1), which is
/// non-uniform but uses the identical machine). The machine is
/// spec-driven: construction builds `bfw_spec(p)` and compiles it,
/// so delta_bot(W•) draws the Figure-1 coin exactly as documented
/// there (rng::coin() when p = 1/2, rng::bernoulli(p) otherwise).
class bfw_machine final : public spec_machine {
 public:
  /// Throws std::invalid_argument unless 0 < p < 1.
  explicit bfw_machine(double p) : spec_machine(bfw_spec(p)), p_(p) {}

  [[nodiscard]] double p() const noexcept { return p_; }

 private:
  double p_;
};

/// Theorem 3 instantiation: BFW with p = 1/(D+1) for known diameter D
/// (or a constant-factor approximation of it).
[[nodiscard]] bfw_machine make_known_diameter_bfw(std::uint32_t diameter);

}  // namespace beepkit::core
