#include "beeping/protocol.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace beepkit::beeping {

void fsm_protocol::materialize_cold() const {
  states_stale_ = false;
  // A deferred reset leaves the vector empty; grow it on the first
  // read that actually needs it.
  if (deferred_nodes_ != 0 && states_.size() != deferred_nodes_) {
    states_.resize(deferred_nodes_);
  }
  if (source_ == nullptr) {
    // Deferred reset with no authority bound yet: every node still
    // sits in the initial state.
    std::fill(states_.begin(), states_.end(), machine_->initial_state());
    return;
  }
  ++materializations_;
  source_->materialize_states(std::span<state_id>(states_));
}

void fsm_protocol::reset(std::size_t node_count, support::rng& /*init_rng*/) {
  // Wholesale overwrite: the fresh vector is the new truth, so any
  // pending lazy unpack is moot.
  states_stale_ = false;
  deferred_nodes_ = node_count;
  states_.assign(node_count, machine_->initial_state());
  ++config_version_;
}

void fsm_protocol::reset_deferred(std::size_t node_count) {
  states_.clear();
  states_.shrink_to_fit();
  deferred_nodes_ = node_count;
  states_stale_ = true;
  ++config_version_;
}

std::size_t fsm_protocol::write_beeps(std::span<std::uint64_t> beep) const {
  materialize();
  std::fill(beep.begin(), beep.end(), 0);
  std::size_t leaders = 0;
  for (std::size_t u = 0; u < states_.size(); ++u) {
    if (machine_->beeps(states_[u])) beep[u >> 6] |= 1ULL << (u & 63);
    if (machine_->is_leader(states_[u])) ++leaders;
  }
  return leaders;
}

bool fsm_protocol::is_leader(graph::node_id node) const {
  materialize();
  return machine_->is_leader(states_[node]);
}

void fsm_protocol::step_round(std::span<const std::uint64_t> heard,
                              const support::rng_source& rngs) {
  materialize();  // the vector becomes truth before it is mutated
  const state_machine& machine = *machine_;
  state_id* const states = states_.data();
  for (std::size_t u = 0, n = states_.size(); u < n; ++u) {
    const support::node_stream rng(rngs, u);
    states[u] = ((heard[u >> 6] >> (u & 63)) & 1ULL) != 0
                    ? machine.delta_top(states[u], rng)
                    : machine.delta_bot(states[u], rng);
  }
}

std::string fsm_protocol::describe(graph::node_id node) const {
  materialize();
  return machine_->state_name(states_[node]);
}

void fsm_protocol::set_states(std::vector<state_id> states) {
  if (states.size() != states_.size()) {
    throw std::invalid_argument(
        "fsm_protocol::set_states: configuration size " +
        std::to_string(states.size()) + " != node count " +
        std::to_string(states_.size()));
  }
  for (state_id s : states) {
    if (s >= machine_->state_count()) {
      throw std::invalid_argument("fsm_protocol::set_states: invalid state id");
    }
  }
  states_stale_ = false;  // wholesale overwrite: the new vector is truth
  states_ = std::move(states);
  ++config_version_;
}

}  // namespace beepkit::beeping
