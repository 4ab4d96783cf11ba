#include "baselines/id_broadcast.hpp"

#include <bit>
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
  bit_index_ = total_bits_ - 1;
  round_in_phase_ = 0;
  finished_ = false;

  ids_ = init_rng.permutation(node_count);
  words_ = (node_count + 63) / 64;
  id_planes_.assign(std::size_t{total_bits_} * words_, 0);
  for (std::size_t u = 0; u < node_count; ++u) {
    for (std::uint64_t id = ids_[u]; id != 0; id &= id - 1) {
      const auto k = static_cast<std::size_t>(std::countr_zero(id));
      id_planes_[k * words_ + (u >> 6)] |= 1ULL << (u & 63);
    }
  }
  candidate_.assign(words_, ~0ULL);
  if (node_count % 64 != 0) {
    candidate_.back() = (1ULL << (node_count % 64)) - 1;
  }
  heard_this_phase_.assign(words_, 0);
  relay_pending_.assign(words_, 0);
}

std::size_t id_broadcast_election::write_beeps(
    std::span<std::uint64_t> beep) const {
  const std::uint64_t initiators = initiating();
  const std::uint64_t* const id_bit = current_id_plane();
  std::size_t leaders = 0;
  for (std::size_t w = 0, words = words_; w < words; ++w) {
    beep[w] = relay_pending_[w] | (candidate_[w] & id_bit[w] & initiators);
    leaders += static_cast<std::size_t>(std::popcount(candidate_[w]));
  }
  return leaders;
}

bool id_broadcast_election::is_leader(graph::node_id node) const {
  return ((candidate_[node >> 6] >> (node & 63)) & 1ULL) != 0;
}

void id_broadcast_election::step_round(std::span<const std::uint64_t> heard,
                                       const support::rng_source& /*rngs*/) {
  if (finished_) return;
  const std::uint64_t initiators = initiating();
  // Relays are only useful while the wave can still travel: none are
  // scheduled in the phase's last round.
  const std::uint64_t may_relay = round_in_phase_ < diameter_bound_ ? ~0ULL : 0;
  const bool verdict = round_in_phase_ == diameter_bound_;
  const std::uint64_t* const id_bit = current_id_plane();
  std::uint64_t* const cand = candidate_.data();
  std::uint64_t* const heard_phase = heard_this_phase_.data();
  std::uint64_t* const relay = relay_pending_.data();
  for (std::size_t w = 0, words = words_; w < words; ++w) {
    const std::uint64_t beeped_now =
        relay[w] | (cand[w] & id_bit[w] & initiators);
    // First contact with this phase's wave: relay once, unless we are
    // its initiator (we beeped before hearing anything).
    const std::uint64_t fresh = heard[w] & ~heard_phase[w];
    const std::uint64_t hp = heard_phase[w] | fresh;
    relay[w] = fresh & ~beeped_now & may_relay;
    if (verdict) {
      // A candidate holding bit 0 that heard a wave knows a larger ID
      // survives.
      cand[w] &= ~(~id_bit[w] & hp);
      heard_phase[w] = 0;
    } else {
      heard_phase[w] = hp;
    }
  }
  if (verdict) {
    round_in_phase_ = 0;
    if (bit_index_ == 0) {
      finished_ = true;
    } else {
      --bit_index_;
    }
  } else {
    ++round_in_phase_;
  }
}

std::string id_broadcast_election::describe(graph::node_id node) const {
  std::ostringstream out;
  out << (is_leader(node) ? "C" : ".") << "(id=" << ids_[node]
      << ",bit=" << bit_index_ << ",r=" << round_in_phase_ << ")";
  return out.str();
}

std::string id_broadcast_election::name() const {
  std::ostringstream out;
  out << "IdBroadcast(D<=" << diameter_bound_ << ")";
  return out.str();
}

}  // namespace beepkit::baselines
