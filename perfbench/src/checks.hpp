// Output checks shared by the workloads. Every check runs outside the
// timed phases; a unit (trial or segment) fails when any check on it
// fails or when computing it threw.
#pragma once

#include <cstdint>

#include "core/convergence.hpp"
#include "core/giant.hpp"

namespace perfbench {

struct check_tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(bool ok) noexcept {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Exactly one leader, reached within the horizon.
[[nodiscard]] bool election_ok(const beepkit::core::election_outcome& outcome,
                               std::uint64_t horizon);

/// The fields the reference gear must reproduce draw for draw: rounds,
/// convergence, leader and coins.
[[nodiscard]] bool same_election(const beepkit::core::election_outcome& a,
                                 const beepkit::core::election_outcome& b);

/// Leader count and coin total of one engine after a fixed number of
/// rounds (xl-early's tiled engine against a serial one).
struct engine_state {
  std::uint64_t rounds = 0;
  std::size_t leaders = 0;
  std::uint64_t coins = 0;

  friend bool operator==(const engine_state&, const engine_state&) = default;
};

/// The kill half of a giant kill/resume cycle stopped where asked and
/// wrote its snapshots.
[[nodiscard]] bool giant_stop_ok(const beepkit::core::giant_result& stop,
                                 std::uint64_t stop_round,
                                 std::uint64_t snapshots);

/// A resume restarted at the stop round (its journal digest verified,
/// or it would have thrown), reached `target_round` unless it elected
/// first, and never raised the leader count.
[[nodiscard]] bool giant_resume_ok(const beepkit::core::giant_result& stop,
                                   const beepkit::core::giant_result& resumed,
                                   std::uint64_t target_round);

}  // namespace perfbench
