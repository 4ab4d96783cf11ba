// Ablation: BFW without the Frozen state.
//
// DESIGN.md calls out the frozen state as the design choice to ablate:
// F is what prevents a leader's own wave from bouncing back off its
// neighbors and eliminating it. The four-state variant below ("BW")
// removes F - after beeping, a node returns straight to waiting. A
// leader u that beeps in round t has all waiting neighbors beep in
// round t+1, which u (now waiting, not frozen) hears, eliminating u:
// leaders self-destruct and the population can reach zero leaders,
// violating the paper's Lemma 9. Tests and the ablation bench
// demonstrate exactly this failure.
//
// The transition structure lives in `bw_spec` (core/protocol_spec.hpp);
// this class builds it through `spec_machine` - the ablation must
// fail at full speed too, so the spec compiles to the same fast-path
// table shape as BFW's.
#pragma once

#include <string>

#include "beeping/protocol.hpp"
#include "core/protocol_spec.hpp"

namespace beepkit::core {

/// Four-state broken variant: {W•, B•, W◦, B◦}, no frozen phase.
class bw_machine final : public spec_machine {
 public:
  /// Throws std::invalid_argument unless 0 < p < 1.
  explicit bw_machine(double p) : spec_machine(bw_spec(p)), p_(p) {}

  static constexpr beeping::state_id leader_wait = 0;
  static constexpr beeping::state_id leader_beep = 1;
  static constexpr beeping::state_id follower_wait = 2;
  static constexpr beeping::state_id follower_beep = 3;

  [[nodiscard]] double p() const noexcept { return p_; }

 private:
  double p_;
};

}  // namespace beepkit::core
