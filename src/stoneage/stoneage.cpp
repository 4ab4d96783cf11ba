#include "stoneage/stoneage.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/patch.hpp"

namespace beepkit::stoneage {

namespace {

/// The beep symbol of a two-symbol beep automaton (bfw_stoneage.hpp
/// pins silent = 0, beep = 1; the fast path requires this layout).
constexpr symbol beep_symbol = 1;

}  // namespace

engine::engine(graph::topology_view view, const automaton& machine,
               std::uint32_t threshold, std::uint64_t seed)
    : view_(std::move(view)),
      n_(view_.node_count()),
      machine_(&machine),
      threshold_(threshold) {
  if (threshold_ == 0) {
    throw std::invalid_argument("stoneage::engine: threshold must be >= 1");
  }
  const std::size_t n = n_;
  rngs_ = support::rng_store::dense(seed, n);
  states_.assign(n, machine.initial_state());
  next_states_.assign(n, machine.initial_state());
  census_.assign(machine.alphabet_size(), 0);
  // Fast-path bind: an automaton that is a beeping machine in disguise,
  // and whose table matches a registered beepc kernel, runs that
  // kernel's display sweep; any other automaton keeps the generic
  // census path. The hook contract (two symbols, matching display/
  // leader predicates) is verified here; any violation is a bug in the
  // automaton, not a reason to fall back silently.
  if (const beeping::state_machine* bm = machine.beep_machine();
      bm != nullptr) {
    if (machine.alphabet_size() != 2 ||
        bm->state_count() != machine.state_count()) {
      throw std::invalid_argument(
          "stoneage::engine: beep_machine() automaton must have alphabet "
          "{silent, beep} and matching state count");
    }
    // Registered kernels cover at most 64 states (6 planes), so a
    // larger machine never matches and keeps the census path.
    compiled_kernel_ = beeping::find_compiled_kernel(bm->table());
    if (compiled_kernel_ != nullptr) {
      table_ = &bm->table();
      for (std::size_t s = 0; s < machine.state_count(); ++s) {
        const auto state = static_cast<state_id>(s);
        if ((machine.display(state) == beep_symbol) != table_->beeps(state) ||
            machine.is_leader(state) != table_->is_leader(state)) {
          throw std::invalid_argument(
              "stoneage::engine: beep_machine() display/leader predicates "
              "disagree with the automaton");
        }
      }
      gather_.emplace(view_);
      beep_words_.assign((n + 63) / 64, 0);
      heard_words_.assign((n + 63) / 64, 0);
      plane_count_ = 1;
      while ((std::size_t{1} << plane_count_) < table_->state_count()) {
        ++plane_count_;
      }
      for (std::size_t j = 0; j < plane_count_; ++j) {
        planes_[j].assign((n + 63) / 64, 0);
      }
      pack_planes();
    }
  }
  tail_mask_ = (n % 64 == 0) ? ~0ULL : ((1ULL << (n % 64)) - 1);
  slot_leaders_.assign(1, 0);
  refresh_counters();
}

// Fast-path entry: transpose states_ into the planes and rebuild the
// displayed-beep word (the sweep maintains both incrementally from
// here on - the per-round O(n) scalar display packing is gone).
void engine::pack_planes() {
  const std::size_t n = n_;
  const beeping::machine_table& table = *table_;
  for (std::size_t j = 0; j < plane_count_; ++j) {
    std::fill(planes_[j].begin(), planes_[j].end(), 0);
  }
  std::fill(beep_words_.begin(), beep_words_.end(), 0);
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint64_t bit = 1ULL << (u & 63);
    const state_id s = states_[u];
    for (std::size_t j = 0; j < plane_count_; ++j) {
      if ((s >> j) & 1U) planes_[j][u >> 6] |= bit;
    }
    if (table.beep_flag[s] != 0) beep_words_[u >> 6] |= bit;
  }
}

void engine::materialize() const {
  if (states_valid_) return;
  states_valid_ = true;
  ++materializations_;
  // SWAR bit-to-u16 transpose (support::simd), replacing the old
  // per-node bit-gather loop - same unpack the beeping engine uses.
  const std::uint64_t* plane_ptrs[6] = {};
  for (std::size_t j = 0; j < plane_count_; ++j) {
    plane_ptrs[j] = planes_[j].data();
  }
  support::simd::transpose_planes_to_u16(plane_ptrs, plane_count_, n_,
                                         states_.data());
}

void engine::set_fast_path_enabled(bool enabled) {
  if (enabled == fast_enabled_) return;
  if (!enabled) {
    // The generic census path reads and writes states_ directly; hand
    // the authority back to the vector.
    materialize();
    fast_enabled_ = false;
    return;
  }
  fast_enabled_ = true;
  if (table_ != nullptr) pack_planes();
}

void engine::set_parallelism(std::size_t threads, std::size_t tile_words) {
  tile_words_ = tile_words;
  const std::size_t resolved =
      threads == 0 ? support::resolve_threads(0) : threads;
  if (resolved <= 1) {
    exec_.reset();
    if (gather_.has_value()) gather_->set_executor(nullptr, 0);
    rngs_.set_slots(1);
    slot_leaders_.assign(1, 0);
    return;
  }
  if (!exec_ || exec_->thread_count() != resolved) {
    exec_ = std::make_unique<support::tile_executor>(resolved);
  }
  if (gather_.has_value()) gather_->set_executor(exec_.get(), tile_words_);
  rngs_.set_slots(resolved);
  slot_leaders_.assign(resolved, 0);
}

void engine::set_gather_kernel(graph::gather_kernel kernel) {
  if (!gather_.has_value()) {
    throw std::logic_error(
        "stoneage::engine::set_gather_kernel: no packed gather - the "
        "automaton binds no compiled kernel, so rounds take the generic "
        "census path");
  }
  gather_->force_kernel(kernel);
}

void engine::set_topology_patch(const graph::patch_overlay* patch) {
  if (!gather_.has_value()) {
    throw std::logic_error(
        "stoneage::engine::set_topology_patch: no packed gather - the "
        "automaton binds no compiled kernel, so rounds take the generic "
        "census path");
  }
  if (patch != nullptr && patch->view().node_count() != n_) {
    throw std::invalid_argument(
        "stoneage::engine::set_topology_patch: overlay node count mismatch");
  }
  gather_->set_patch(patch);
}

void engine::refresh_counters() {
  materialize();
  leader_count_ = 0;
  for (state_id s : states_) {
    if (machine_->is_leader(s)) ++leader_count_;
  }
}

void engine::step() {
  // Same probe discipline as beeping::engine::step: counter bumps when
  // enabled, clock reads and trace spans only on sampled rounds, and
  // never a probe that could touch RNG streams or iteration order.
  namespace tel = support::telemetry;
  const bool tel_on = tel::compiled_in && telemetry_enabled_ && tel::enabled();
  const bool sampled = tel_on && tel::round_sampled(round_);
  const std::uint64_t probe_start = sampled ? tel::now_ns() : 0;
  if (fast_path_active()) {
    if (tel_on) ++metrics_.rounds_plane_compiled;
    step_fast();
  } else {
    if (tel_on) ++metrics_.rounds_virtual;
    const std::size_t n = n_;
    const support::rng_source rngs = rngs_.source();
    for (graph::node_id u = 0; u < n; ++u) {
      std::fill(census_.begin(), census_.end(), 0U);
      view_.for_each_neighbor(u, [&](graph::node_id v) {
        const symbol sigma = machine_->display(states_[v]);
        if (census_[sigma] < threshold_) ++census_[sigma];
      });
      next_states_[u] = machine_->transition(states_[u], census_,
                                             support::node_stream(rngs, u));
    }
    states_.swap(next_states_);
    ++round_;
    refresh_counters();
  }
  if (sampled) {
    const std::uint64_t dur = tel::now_ns() - probe_start;
    metrics_.round_ns.record(dur);
    ++metrics_.sampled_rounds;
    if (tel::trace_enabled()) {
      tel::trace_complete("round", "stoneage", probe_start, dur);
    }
  }
}

support::telemetry::engine_metrics engine::telemetry_metrics() const {
  support::telemetry::engine_metrics m = metrics_;
  m.materializations = materializations_;
  if (exec_) {
    const auto claims = exec_->claim_counts();
    std::uint64_t max_words = 0;
    for (const auto& c : claims) {
      m.tile_claims += c.tiles;
      m.tile_claimed_words += c.words;
      max_words = std::max(max_words, c.words);
    }
    if (m.tile_claimed_words != 0) {
      const double mean = static_cast<double>(m.tile_claimed_words) /
                          static_cast<double>(claims.size());
      m.tile_imbalance = static_cast<double>(max_words) / mean;
    }
  }
  return m;
}

void engine::set_compiled_width(std::size_t width) {
  if (width != 1 && width != 2 && width != 4 && width != 8) {
    throw std::invalid_argument(
        "stoneage::engine::set_compiled_width: width must be 1, 2, 4 or 8");
  }
  compiled_width_ = width;
}

// The fast-path round: the displayed-beep word is already maintained
// by the previous sweep (no scalar packing), the shared word-parallel
// heard-gather computes the heard set (stencil / word-CSR push / packed
// pull, same dispatch as the beeping engine), and the bound beepc
// kernel's display-mode sweep (planes + beep word + leader count; no
// active set or ledger exists in this engine) routes 64 nodes at a
// time, tiled via set_parallelism. With any threshold b >= 1 the
// clipped census entry for `beep` is positive iff some neighbor
// displays it, so this is exactly the generic round - same
// transitions, same generator draws (stochastic rules draw per node in
// ascending order off per-node streams). The state vector is not
// written at all; states() unpacks the planes lazily.
void engine::step_fast() {
  std::copy(beep_words_.begin(), beep_words_.end(), heard_words_.begin());
  (*gather_)(beep_words_, heard_words_);
  const std::size_t words = heard_words_.size();
  std::uint64_t* plane_ptrs[6] = {};
  for (std::size_t j = 0; j < plane_count_; ++j) {
    plane_ptrs[j] = planes_[j].data();
  }
  beeping::plane_ctx ctx;
  ctx.heard = heard_words_.data();
  ctx.beep = beep_words_.data();
  ctx.planes = plane_ptrs;
  ctx.rngs = rngs_.source();
  ctx.rules = table_->rules.data();
  ctx.tail_mask = tail_mask_;
  ctx.words = words;
  const beeping::display_sweep_fn sweep =
      compiled_kernel_->display[beeping::kernel_width_slot(compiled_width_)];
  std::fill(slot_leaders_.begin(), slot_leaders_.end(), 0);
  const auto sweep_range = [&](std::size_t slot, std::size_t wb,
                               std::size_t we) {
    // Per-tile ctx copy drawing through the slot's own coin counter.
    beeping::plane_ctx tile_ctx = ctx;
    tile_ctx.rngs = rngs_.source(slot);
    slot_leaders_[slot] += sweep(tile_ctx, wb, we).leaders;
  };
  if (exec_) {
    exec_->run_tiles(words, tile_words_, sweep_range);
  } else {
    sweep_range(0, 0, words);
  }
  std::size_t leaders = 0;
  for (const std::size_t part : slot_leaders_) leaders += part;
  leader_count_ = leaders;
  ++compiled_rounds_;
  ++round_;
  states_valid_ = false;  // planes authoritative; unpack on read
}

void engine::run_rounds(std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) step();
}

engine::run_result engine::run_until_single_leader(std::uint64_t max_rounds) {
  while (round_ < max_rounds) {
    if (leader_count_ <= 1) break;
    step();
  }
  return {round_, leader_count_ == 1, leader_count_};
}

graph::node_id engine::sole_leader() const {
  if (leader_count_ != 1) {
    return static_cast<graph::node_id>(n_);
  }
  materialize();
  for (graph::node_id u = 0; u < n_; ++u) {
    if (machine_->is_leader(states_[u])) return u;
  }
  return static_cast<graph::node_id>(n_);
}

void engine::set_states(std::vector<state_id> states) {
  if (states.size() != states_.size()) {
    throw std::invalid_argument("stoneage::engine::set_states: size mismatch");
  }
  for (state_id s : states) {
    if (s >= machine_->state_count()) {
      throw std::invalid_argument(
          "stoneage::engine::set_states: invalid state id");
    }
  }
  states_ = std::move(states);
  states_valid_ = true;  // wholesale overwrite: the vector is truth
  if (fast_path_active()) pack_planes();
  refresh_counters();
}

}  // namespace beepkit::stoneage
