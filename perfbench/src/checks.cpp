#include "checks.hpp"

namespace perfbench {

bool election_ok(const beepkit::core::election_outcome& outcome,
                 std::uint64_t horizon) {
  return outcome.converged && outcome.final_leader_count == 1 &&
         outcome.rounds <= horizon;
}

bool same_election(const beepkit::core::election_outcome& a,
                   const beepkit::core::election_outcome& b) {
  return a.converged == b.converged && a.rounds == b.rounds &&
         a.leader == b.leader && a.total_coins == b.total_coins &&
         a.final_leader_count == b.final_leader_count;
}

bool giant_stop_ok(const beepkit::core::giant_result& stop,
                   std::uint64_t stop_round, std::uint64_t snapshots) {
  return stop.start_round == 0 && stop.stopped_early &&
         stop.rounds == stop_round && stop.leaders >= 1 &&
         stop.checkpoints_written == snapshots;
}

bool giant_resume_ok(const beepkit::core::giant_result& stop,
                     const beepkit::core::giant_result& resumed,
                     std::uint64_t target_round) {
  const bool reached =
      resumed.rounds == target_round ||
      (resumed.converged && resumed.rounds < target_round);
  return resumed.start_round == stop.rounds && reached &&
         resumed.leaders >= 1 && resumed.leaders <= stop.leaders &&
         resumed.draws >= stop.draws;
}

}  // namespace perfbench
