#include "support/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace beepkit::support {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

rng::rng(std::uint64_t seed) noexcept {
  split_mix64 sm(seed);
  for (auto& word : state_) {
    word = sm.next();
  }
  // xoshiro must not start from the all-zero state; splitmix64 output
  // of four consecutive words is never all zero, but be defensive.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

rng rng::substream(std::uint64_t stream) const noexcept {
  // Mix the current state with the stream id through splitmix64 to get
  // a well-separated child seed.
  split_mix64 sm(state_[0] ^ rotl(state_[1], 17) ^ rotl(state_[2], 31) ^
                 state_[3] ^ (0xa0761d6478bd642fULL * (stream + 1)));
  return rng(sm.next());
}

std::uint64_t rng::uniform_below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_below(range));
}

std::uint64_t rng::geometric(double p) noexcept {
  if (p >= 1.0) return 0;
  if (p <= 0.0) return std::numeric_limits<std::uint64_t>::max();
  // Inverse transform: floor(log(U) / log(1-p)).
  const double u = 1.0 - uniform01();  // in (0, 1]
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

std::vector<std::size_t> rng::permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  shuffle(std::span<std::size_t>(perm));
  return perm;
}

std::vector<rng> make_node_streams(std::uint64_t root_seed,
                                   std::size_t count) {
  const rng root(root_seed);
  std::vector<rng> streams;
  streams.reserve(count);
  for (std::size_t node = 0; node < count; ++node) {
    streams.push_back(root.substream(node));
  }
  return streams;
}

rng_store rng_store::dense(std::uint64_t root_seed, std::size_t count) {
  rng_store store;
  store.root_ = rng(root_seed);
  store.hot_.assign(count, 0);
  store.cold_ = std::make_unique_for_overwrite<rng::state_type[]>(count);
  return store;
}

rng_store rng_store::lazy(std::uint64_t root_seed, std::size_t count,
                          draw_mode mode) {
  rng_store store;
  store.lazy_ = true;
  store.mode_ = mode;
  store.root_ = rng(root_seed);
  store.cursors_.assign(count, 0);
  return store;
}

void rng_store::seed(std::size_t stream) noexcept {
  cold_[stream] = root_.substream(stream).state_;
  hot_[stream] = 1;
}

rng& rng_store::acquire(std::size_t slot, std::size_t stream) noexcept {
  sync(slot);
  slot_state& s = slots_[slot];
  s.active = stream;
  if (!lazy_) {
    unpack(s.scratch, stream);
    return s.scratch;
  }
  s.scratch = root_.substream(stream);
  const std::uint32_t cursor = cursors_[stream];
  if (cursor != 0) {
    if (mode_ == draw_mode::coins) {
      s.scratch.discard_coins(cursor);
    } else {
      s.scratch.discard_u64(cursor);
    }
  }
  return s.scratch;
}

// Kept out of acquire(): inlined, the dense unpack made the lazy path -
// one acquire per draw in a giant trial - measurably slower.
[[gnu::noinline]] void rng_store::unpack(rng& out,
                                         std::size_t stream) noexcept {
  // The sentinel's position is the number of unread coins, the bits
  // below it are those coins.
  if (hot_[stream] == 0) seed(stream);
  const std::uint64_t h = hot_[stream];
  const auto left = static_cast<unsigned>(63 - std::countl_zero(h));
  out.state_ = cold_[stream];
  out.coin_buffer_ = h ^ (1ULL << left);
  out.coin_bits_left_ = left;
  out.coins_ = 0;
  out.calls_ = 0;
}

void rng_store::sync_all() noexcept {
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) sync(slot);
}

void rng_store::set_slots(std::size_t slots) {
  sync_all();
  for (slot_state& s : slots_) {
    coins_base_ += s.coins;
    s.coins = 0;
  }
  slots_.resize(slots == 0 ? 1 : slots);
}

std::span<const std::uint32_t> rng_store::cursors() {
  sync_all();
  return cursors_;
}

void rng_store::set_cursors(std::span<const std::uint32_t> cursors) {
  if (!lazy_ || cursors.size() != cursors_.size()) {
    throw std::invalid_argument("rng_store: cursor size mismatch");
  }
  for (slot_state& s : slots_) s.active = npos;
  std::copy(cursors.begin(), cursors.end(), cursors_.begin());
}

std::span<std::uint32_t> rng_store::cursors_mutable() {
  if (!lazy_) {
    throw std::logic_error("rng_store: dense mode has no cursor array");
  }
  sync_all();
  return cursors_;
}

std::uint64_t rng_store::total_draws() {
  sync_all();
  std::uint64_t total = 0;
  if (!lazy_) {
    total = coins_base_;
    for (const slot_state& s : slots_) total += s.coins;
    return total;
  }
  for (const std::uint32_t cursor : cursors_) total += cursor;
  return total;
}

std::uint64_t rng_store::total_coins() {
  if (lazy_ && mode_ == draw_mode::raw64) return 0;
  return total_draws();
}

}  // namespace beepkit::support
