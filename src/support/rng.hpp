// Deterministic pseudo-random number generation for simulations.
//
// The paper emphasises a parsimonious use of randomness: with p = 1/2 a
// node consumes exactly one fair coin per round (Section 1.3). To make
// that claim checkable, `rng` keeps an explicit account of the fair
// coin flips drawn through `coin()`.
//
// Reproducibility contract: every simulation trial is fully determined
// by a root seed. Per-node generators are derived with `substream()`,
// which hashes (state, stream-id) through splitmix64, so results do not
// depend on node iteration order and streams are statistically
// independent for all practical purposes.
//
// Thread-safety contract: an `rng` (its state *and* its coin account)
// is plain mutable data - never share one across threads. The parallel
// trial runner gives every trial its own generators and aggregates
// coin counts per trial after the join barrier (summing
// `coins_consumed()` of finished trials in trial order), so the
// accounting needs no atomics and stays bit-identical to a serial run.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace beepkit::support {

/// splitmix64: tiny, fast 64-bit generator used only for seeding and
/// stream derivation (Steele, Lea & Flood 2014).
struct split_mix64 {
  std::uint64_t state = 0;

  constexpr explicit split_mix64(std::uint64_t seed) noexcept : state(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// xoshiro256** 1.0 (Blackman & Vigna 2018) behind a simulation-oriented
/// interface. Satisfies UniformRandomBitGenerator, so it can be plugged
/// into <random> distributions when needed.
class rng {
 public:
  using result_type = std::uint64_t;
  /// The raw xoshiro256** state (32 bytes).
  using state_type = std::array<std::uint64_t, 4>;

  /// Seeds the four words of state by running splitmix64 from `seed`.
  explicit rng(std::uint64_t seed) noexcept;

  /// Derives an independent generator for a logical stream (e.g. one
  /// per node). Deterministic in (current seed material, stream).
  [[nodiscard]] rng substream(std::uint64_t stream) const noexcept;

  // The draw primitives below are defined inline: they sit on the
  // engine's per-node round path, where an out-of-line call would cost
  // as much as the draw itself.

  /// One xoshiro256** step on a raw state: returns the scrambled
  /// output and advances `s`. next_u64() and the dense rng_store's
  /// cold array share it, so both produce the same sequence.
  static std::uint64_t advance(state_type& s) noexcept {
    const std::uint64_t result = rotl_(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl_(s[3], 45);
    return result;
  }

  /// Maps 64 raw bits to a double in [0, 1) with 53 bits of precision.
  static double to_unit(std::uint64_t bits) noexcept {
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
  }

  /// Raw 64 uniform bits (xoshiro256** scrambler).
  std::uint64_t next_u64() noexcept {
    ++calls_;
    return advance(state_);
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() noexcept { return to_unit(next_u64()); }

  /// Bernoulli(p) trial; p is clamped to [0, 1].
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// One fair coin flip, served from an internal 64-bit buffer so that
  /// 64 flips consume a single generator call. Increments the coin
  /// account by exactly one bit.
  bool coin() noexcept {
    if (coin_bits_left_ == 0) {
      coin_buffer_ = next_u64();
      coin_bits_left_ = 64;
    }
    const bool bit = (coin_buffer_ & 1ULL) != 0;
    coin_buffer_ >>= 1;
    --coin_bits_left_;
    ++coins_;
    return bit;
  }

  /// Unbiased integer in [0, bound) via Lemire's method with rejection.
  /// bound == 0 is undefined; callers must guarantee bound >= 1.
  std::uint64_t uniform_below(std::uint64_t bound) noexcept;

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Geometric: number of failures before the first success of a
  /// Bernoulli(p) sequence (support {0, 1, 2, ...}).
  std::uint64_t geometric(double p) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Uniform random permutation of {0, ..., n-1}.
  [[nodiscard]] std::vector<std::size_t> permutation(std::size_t n);

  /// Number of fair coin bits drawn through coin() so far.
  [[nodiscard]] std::uint64_t coins_consumed() const noexcept { return coins_; }

  /// Number of raw 64-bit words drawn through next_u64() so far (every
  /// draw primitive bottoms out there). Together with coins_consumed()
  /// this is the complete draw cursor of a stream: a fresh generator
  /// fast-forwarded by either count lands on the identical state, which
  /// is what lets giant trials store a 4-byte cursor per node instead
  /// of a 64-byte generator (rng_store below).
  [[nodiscard]] std::uint64_t u64_draws() const noexcept { return calls_; }

  /// Advances past `count` fair coins exactly as `count` coin() calls
  /// would - same buffer refill boundaries, same residual buffer bits,
  /// same coin account - without reading the results.
  void discard_coins(std::uint64_t count) noexcept {
    coin_buffer_ = 0;
    coin_bits_left_ = 0;
    for (std::uint64_t i = 0; i < count / 64; ++i) (void)next_u64();
    const auto rem = static_cast<unsigned>(count % 64);
    if (rem != 0) {
      coin_buffer_ = next_u64() >> rem;
      coin_bits_left_ = 64 - rem;
    }
    coins_ += count;
  }

  /// Advances past `count` raw next_u64() draws.
  void discard_u64(std::uint64_t count) noexcept {
    for (std::uint64_t i = 0; i < count; ++i) (void)next_u64();
  }

  /// Resets only the coin account (state is untouched).
  void reset_coin_account() noexcept { coins_ = 0; }

  // UniformRandomBitGenerator interface.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() noexcept { return next_u64(); }

 private:
  static constexpr std::uint64_t rotl_(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  // The dense rng_store moves a stream between its hot/cold arrays and
  // a slot's scratch generator field by field.
  friend class rng_store;

  state_type state_{};
  std::uint64_t coin_buffer_ = 0;
  unsigned coin_bits_left_ = 0;
  std::uint64_t coins_ = 0;
  std::uint64_t calls_ = 0;
};

/// Derives `count` per-node generators from a root seed, one substream
/// per node id. The plain-generator reference: rng_store serves the
/// identical streams, and the tests compare it against this array.
[[nodiscard]] std::vector<rng> make_node_streams(std::uint64_t root_seed,
                                                 std::size_t count);

/// How a lazily reconstructed stream's draw cursor maps back onto
/// generator state: `coins` replays fair-coin bits through the coin
/// buffer (BFW with p = 1/2 - one bit per draw), `raw64` replays whole
/// next_u64 calls (bernoulli / uniform draws - one word per draw).
enum class draw_mode : std::uint8_t { coins, raw64 };

struct rng_source;

/// The per-node generator array behind an engine, in one of two
/// representations. Both serve exactly the make_node_streams(seed, n)
/// sequences, draw for draw:
///
///  * dense - a structure of arrays, 40 bytes per stream:
///     - a *hot* 8-byte coin word, touched by every fair coin;
///     - a *cold* 32-byte xoshiro state, touched only when the coin
///       word runs dry or on a raw (next_u64 / bernoulli) draw.
///    The hot word is sentinel-encoded: 0 means "not seeded yet", 1
///    means "seeded, coin buffer empty", and any other value holds the
///    unread coins in its low bits with one sentinel bit above them -
///    rng::coin()'s buffer, LSB first, 64 coins per xoshiro word. A
///    stream's cold state is seeded from root.substream(stream) on its
///    first draw, not at construction, so building the store costs one
///    zeroed hot array. No per-stream counters are stored: each slot
///    (below) keeps one coin counter for the streams it draws.
///  * lazy  - a 4-byte draw cursor per node plus one scratch
///    generator. Each access reconstructs the requested stream on
///    demand (substream + fast-forward by the cursor), so a
///    10^9-node giant trial pays 4 GB instead of 40 GB, and the
///    cursor array doubles as the checkpoint representation of all
///    randomness. Reconstruction replays cursor/64 words, which stays
///    cheap because a BFW node only draws while it waits in W-black.
///
/// Draw loops go through rng_source (below), which draws from the
/// dense arrays in place. at(slot, stream) instead hands out a whole
/// `rng&`: the stream is copied into the slot's scratch generator and
/// copied back when the slot moves on to another stream or on
/// sync_all(). In dense mode only single-stream uses take that route
/// (protocol reset's stream n, engine::node_rng), never a per-node
/// loop; in lazy mode every draw does.
///
/// A slot is a thread context: tiled sweeps draw through source(slot)
/// with their executor slot, and each cache-line-aligned slot owns its
/// scratch generator and coin counter. Concurrent use is race-free as
/// long as slots touch disjoint stream ranges (tiles own disjoint
/// words, hence disjoint nodes). Lazy mode: after a tiled round's join
/// barrier the engine must call sync_all() - tile->slot assignment is
/// dynamic, so a cursor left cached in one slot's scratch would be
/// stale-read by another slot next round. Both modes: when at() may
/// have parked a stream in a scratch generator (engine::node_rng), a
/// sweep that draws through rng_source calls sync_all() at its serial
/// entry, so the stream is written back before it is drawn in place.
class rng_store {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  rng_store() = default;

  [[nodiscard]] static rng_store dense(std::uint64_t root_seed,
                                       std::size_t count);
  [[nodiscard]] static rng_store lazy(std::uint64_t root_seed,
                                      std::size_t count, draw_mode mode);

  [[nodiscard]] bool is_lazy() const noexcept { return lazy_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return lazy_ ? cursors_.size() : hot_.size();
  }

  /// Number of independent scratch slots (>= 1; slot 0 always exists).
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }
  /// Grows/shrinks the slot array to `slots` (clamped to >= 1). Syncs
  /// every active scratch stream back first and folds the slots' coin
  /// counters into the store's total, so no draw is lost when contexts
  /// disappear.
  void set_slots(std::size_t slots);

  rng& operator[](std::size_t stream) noexcept { return at(0, stream); }

  /// The stream as a whole generator, materialized in (or served from)
  /// the given slot's scratch context. The reference stays valid until
  /// the slot serves another stream or the next sync_all() - e.g. until
  /// the owning engine's next round.
  rng& at(std::size_t slot, std::size_t stream) noexcept {
    slot_state& s = slots_[slot];
    return stream == s.active ? s.scratch : acquire(slot, stream);
  }

  /// Folds every slot's active scratch stream back into the store and
  /// deactivates it. Must run after each lazy tiled round's join
  /// barrier, and before an in-place sweep when at() may have parked a
  /// stream (see class comment).
  void sync_all() noexcept;

  /// Lazy mode: the per-stream draw cursors with the active scratch
  /// stream folded back in - the complete serializable state of every
  /// generator. Invalidated by the next operator[].
  [[nodiscard]] std::span<const std::uint32_t> cursors();
  /// Lazy mode: restores cursors saved by cursors(). Size must match.
  void set_cursors(std::span<const std::uint32_t> cursors);
  /// Lazy mode: mutable access to the cursor array for in-place
  /// restore - the giant resume decodes varint chunks straight into
  /// this span instead of staging a second O(n) buffer. Syncs and
  /// deactivates the scratch stream first. Throws std::logic_error in
  /// dense mode.
  [[nodiscard]] std::span<std::uint32_t> cursors_mutable();

  /// Total draws across all streams (coin bits or u64 calls, per the
  /// mode). Dense mode reports coin bits. O(slots) in dense mode,
  /// O(streams) in lazy mode.
  [[nodiscard]] std::uint64_t total_draws();
  /// Fair-coin account across all streams - what engines report as
  /// total_coins_consumed(). raw64-mode draws are not coins and count
  /// zero, exactly as bernoulli() never touches the coin account.
  [[nodiscard]] std::uint64_t total_coins();

  /// The draw-loop view of this store, bound to one slot (see
  /// rng_source below). Tiled sweeps call source(slot) inside the tile
  /// body so each executor slot draws through its own context.
  [[nodiscard]] rng_source source(std::size_t slot = 0) noexcept;

 private:
  /// One thread context: its own scratch generator, which stream
  /// currently lives in it, and (dense mode) the coin counter of every
  /// draw made through this slot. Cache-line-aligned so concurrent
  /// slots never false-share.
  struct alignas(64) slot_state {
    rng scratch{0};
    std::size_t active = npos;
    std::uint64_t coins = 0;
  };

  static constexpr std::uint64_t sentinel_top = 1ULL << 63;

  rng& acquire(std::size_t slot, std::size_t stream) noexcept;
  /// Dense mode: materializes a stream's hot word and cold state as a
  /// whole generator with a fresh (zero) draw account.
  void unpack(rng& out, std::size_t stream) noexcept;
  /// Writes the slot's active scratch stream back and deactivates it.
  /// Inline: acquire() runs it on every lazy-mode draw.
  void sync(std::size_t slot) noexcept {
    slot_state& s = slots_[slot];
    if (s.active == npos) return;
    if (lazy_) {
      const std::uint64_t count = mode_ == draw_mode::coins
                                      ? s.scratch.coins_consumed()
                                      : s.scratch.u64_draws();
      cursors_[s.active] = static_cast<std::uint32_t>(count);
    } else {
      // Between draws rng::coin() leaves at most 63 unread coins, so
      // the sentinel always fits above them.
      cold_[s.active] = s.scratch.state_;
      hot_[s.active] =
          s.scratch.coin_buffer_ | (1ULL << s.scratch.coin_bits_left_);
      s.coins += s.scratch.coins_consumed();
    }
    s.active = npos;
  }
  /// Dense mode: seeds a never-drawn stream's cold state (first use).
  void seed(std::size_t stream) noexcept;
  /// Dense mode: one fair coin from an empty (or unseeded) coin word -
  /// one xoshiro step, 63 coins banked under the sentinel.
  bool refill_coin(std::size_t stream) noexcept {
    if (hot_[stream] == 0) [[unlikely]] {
      seed(stream);
    }
    const std::uint64_t x = rng::advance(cold_[stream]);
    hot_[stream] = (x >> 1) | sentinel_top;
    return (x & 1ULL) != 0;
  }
  /// Dense mode: one raw word; the coin word is left as it is.
  std::uint64_t raw_u64(std::size_t stream) noexcept {
    if (hot_[stream] == 0) [[unlikely]] {
      seed(stream);
    }
    return rng::advance(cold_[stream]);
  }

  bool lazy_ = false;
  draw_mode mode_ = draw_mode::coins;
  rng root_{0};
  // Dense representation. hot_ is zero-filled (every stream unseeded);
  // cold_ is left uninitialized - a stream's state is written on its
  // first draw, so pages of never-drawn streams are never touched.
  std::vector<std::uint64_t> hot_;
  std::unique_ptr<rng::state_type[]> cold_;
  // Coins drawn through slots that set_slots() has since folded away.
  std::uint64_t coins_base_ = 0;
  // Lazy representation.
  std::vector<std::uint32_t> cursors_;
  std::vector<slot_state> slots_ = std::vector<slot_state>(1);

  friend struct rng_source;
};

/// The indirection the engines' draw loops go through, bound to one
/// slot of an rng_store. Dense stores are drawn in place: a coin costs
/// one load and store of the stream's hot word (plus one xoshiro step
/// every 64 coins), and bumps the slot's coin counter. Lazy stores
/// forward to store->at(slot, stream), so the giant path and its
/// checkpoints are untouched. A default-constructed source is empty.
struct rng_source {
  std::uint64_t* hot = nullptr;    ///< dense mode; null in lazy mode
  std::uint64_t* coins = nullptr;  ///< the slot's coin counter (dense)
  rng_store* store = nullptr;
  std::size_t slot = 0;

  /// One fair coin of `stream`, identical to rng::coin().
  bool coin(std::size_t stream) const noexcept {
    if (hot == nullptr) return store->at(slot, stream).coin();
    ++*coins;
    const std::uint64_t h = hot[stream];
    if (h > 1) {
      hot[stream] = h >> 1;
      return (h & 1ULL) != 0;
    }
    return store->refill_coin(stream);
  }
  /// Raw 64 bits of `stream`, identical to rng::next_u64().
  std::uint64_t next_u64(std::size_t stream) const noexcept {
    if (hot == nullptr) return store->at(slot, stream).next_u64();
    return store->raw_u64(stream);
  }
  /// Bernoulli(p) trial of `stream`, identical to rng::bernoulli(p).
  bool bernoulli(std::size_t stream, double p) const noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return rng::to_unit(next_u64(stream)) < p;
  }
};

inline rng_source rng_store::source(std::size_t slot) noexcept {
  return lazy_ ? rng_source{nullptr, nullptr, this, slot}
               : rng_source{hot_.data(), &slots_[slot].coins, this, slot};
}

/// The generator handle per-node protocol code draws through: either a
/// plain generator or one stream of an rng_source. Two words, so it
/// travels in registers (a third word would put it on the stack of
/// every per-node virtual call). Converts implicitly from `rng&`.
/// Touches the store only when the code actually draws.
class node_stream {
 public:
  node_stream(rng& stream) noexcept  // NOLINT: implicit by design
      : stream_(&stream), node_(npos) {}
  node_stream(const rng_source& source, std::size_t node) noexcept
      : source_(&source), node_(node) {}

  bool coin() const noexcept {
    return node_ == npos ? stream_->coin() : source_->coin(node_);
  }
  std::uint64_t next_u64() const noexcept {
    return node_ == npos ? stream_->next_u64() : source_->next_u64(node_);
  }
  bool bernoulli(double p) const noexcept {
    return node_ == npos ? stream_->bernoulli(p)
                         : source_->bernoulli(node_, p);
  }

 private:
  static constexpr std::size_t npos = rng_store::npos;

  union {
    rng* stream_;
    const rng_source* source_;
  };
  std::size_t node_;
};
static_assert(sizeof(node_stream) == 16, "node_stream must stay two words");

}  // namespace beepkit::support
