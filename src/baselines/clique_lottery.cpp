#include "baselines/clique_lottery.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace beepkit::baselines {

clique_lottery::clique_lottery(double epsilon) : epsilon_(epsilon) {
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    throw std::invalid_argument("clique_lottery: epsilon must be in (0, 1)");
  }
}

void clique_lottery::reset(std::size_t node_count,
                           support::rng& /*init_rng*/) {
  const double n = std::max<double>(2.0, static_cast<double>(node_count));
  // P(some pair survives round k) <= n^2 (3/4)^k, so
  // T = (2 log2 n + log2(1/eps)) / log2(4/3) drives it below eps.
  const double t = (2.0 * std::log2(n) + std::log2(1.0 / epsilon_)) /
                   std::log2(4.0 / 3.0);
  budget_ = static_cast<std::uint64_t>(std::ceil(t));
  nodes_.assign(node_count, node_state{});
}

bool clique_lottery::beeping(graph::node_id node) const {
  return nodes_[node].beep_now;
}

bool clique_lottery::is_leader(graph::node_id node) const {
  return nodes_[node].candidate;
}

void clique_lottery::step(graph::node_id node, bool heard,
                          support::node_stream node_rng) {
  node_state& s = nodes_[node];
  const bool listened = s.candidate && !s.beep_now;
  // Withdrawal: a listening candidate that heard a competitor loses.
  if (listened && heard) {
    s.candidate = false;
  }
  ++s.round;
  // Coin for the next round; quiescent after the budget (termination
  // by round counting - this is where knowledge of n is consumed).
  s.beep_now = s.candidate && s.round <= budget_ && node_rng.coin();
}

std::string clique_lottery::describe(graph::node_id node) const {
  const node_state& s = nodes_[node];
  std::ostringstream out;
  out << (s.candidate ? "C" : ".") << (s.beep_now ? "!" : " ");
  return out.str();
}

std::string clique_lottery::name() const {
  std::ostringstream out;
  out << "CliqueLottery(eps=" << epsilon_ << ")";
  return out.str();
}

}  // namespace beepkit::baselines
