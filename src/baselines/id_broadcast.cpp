#include "baselines/id_broadcast.hpp"

#include <sstream>

namespace beepkit::baselines {

id_broadcast_election::id_broadcast_election(std::uint32_t diameter_bound)
    : diameter_bound_(diameter_bound) {}

void id_broadcast_election::reset(std::size_t node_count,
                                  support::rng& init_rng) {
  // Distinct identifiers: a random permutation of {0, ..., n-1}. The
  // baseline class assumes IDs are given; drawing them from a
  // permutation keeps runs seed-deterministic while exercising
  // arbitrary ID placement.
  total_bits_ = 1;
  while ((std::size_t{1} << total_bits_) < node_count) ++total_bits_;

  const auto perm = init_rng.permutation(node_count);
  nodes_.assign(node_count, node_state{});
  for (std::size_t u = 0; u < node_count; ++u) {
    nodes_[u].id = perm[u];
    nodes_[u].bit_index = total_bits_ - 1;
  }
}

bool id_broadcast_election::initiates(const node_state& s) const noexcept {
  return !s.finished && s.candidate && s.round_in_phase == 0 &&
         ((s.id >> s.bit_index) & 1ULL) != 0;
}

bool id_broadcast_election::beeping(graph::node_id node) const {
  const node_state& s = nodes_[node];
  return s.relay_pending || initiates(s);
}

bool id_broadcast_election::is_leader(graph::node_id node) const {
  return nodes_[node].candidate;
}

void id_broadcast_election::step(graph::node_id node, bool heard,
                                 support::node_stream /*node_rng*/) {
  node_state& s = nodes_[node];
  if (s.finished) return;

  const bool beeped_now = beeping(node);
  s.relay_pending = false;

  if (heard && !s.heard_this_phase) {
    s.heard_this_phase = true;
    // First contact with this phase's wave: relay once, unless we are
    // its initiator (we beeped before hearing anything) or the phase
    // is about to end.
    if (!beeped_now && !s.relayed && s.round_in_phase < diameter_bound_) {
      s.relay_pending = true;
      s.relayed = true;
    }
  }

  if (s.round_in_phase == diameter_bound_) {
    // Phase verdict: a candidate holding bit 0 that heard a wave knows
    // a larger ID survives.
    const bool my_bit = ((s.id >> s.bit_index) & 1ULL) != 0;
    if (s.candidate && !my_bit && s.heard_this_phase) {
      s.candidate = false;
    }
    s.heard_this_phase = false;
    s.relay_pending = false;
    s.relayed = false;
    s.round_in_phase = 0;
    if (s.bit_index == 0) {
      s.finished = true;
    } else {
      --s.bit_index;
    }
  } else {
    ++s.round_in_phase;
  }
}

std::string id_broadcast_election::describe(graph::node_id node) const {
  const node_state& s = nodes_[node];
  std::ostringstream out;
  out << (s.candidate ? "C" : ".") << "(id=" << s.id << ",bit=" << s.bit_index
      << ",r=" << s.round_in_phase << ")";
  return out.str();
}

std::string id_broadcast_election::name() const {
  std::ostringstream out;
  out << "IdBroadcast(D<=" << diameter_bound_ << ")";
  return out.str();
}

}  // namespace beepkit::baselines
