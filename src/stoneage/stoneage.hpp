// Synchronous stone-age model (Emek & Wattenhofer, PODC 2013), as used
// by the paper's remark that BFW "can also be implemented in a
// synchronous version of the stone-age model" (Section 1).
//
// Nodes are finite automata that *display* a symbol from a finite
// alphabet Sigma. In each round, a node observes, for every symbol
// sigma, the number of neighbors displaying sigma - but clipped at a
// threshold b >= 1 ("one-two-many" counting). With b = 1 a node only
// learns "no neighbor shows sigma" vs "at least one does", which is
// precisely the information a beeping-model listener gets; this is what
// makes the BFW embedding work (src/core/bfw_stoneage.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "beeping/plane_kernel.hpp"
#include "beeping/protocol.hpp"
#include "graph/gather.hpp"
#include "graph/graph.hpp"
#include "graph/view.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/telemetry.hpp"

namespace beepkit::stoneage {

using state_id = std::uint16_t;
using symbol = std::uint16_t;

/// A probabilistic stone-age automaton. Stateless object; all per-node
/// state is the state id (anonymity, as in the beeping layer).
class automaton {
 public:
  virtual ~automaton() = default;

  [[nodiscard]] virtual std::size_t state_count() const = 0;
  [[nodiscard]] virtual std::size_t alphabet_size() const = 0;
  [[nodiscard]] virtual state_id initial_state() const = 0;
  /// Symbol displayed while in `state`.
  [[nodiscard]] virtual symbol display(state_id state) const = 0;
  [[nodiscard]] virtual bool is_leader(state_id state) const = 0;
  /// Next state given the clipped neighborhood census:
  /// counts[sigma] = min(#neighbors displaying sigma, b).
  [[nodiscard]] virtual state_id transition(
      state_id state, std::span<const std::uint32_t> counts,
      support::node_stream rng) const = 0;
  [[nodiscard]] virtual std::string state_name(state_id state) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Fast-path hook: when this automaton is a beeping machine in
  /// disguise - alphabet {0 = silent, 1 = beep}, display(s) = beep iff
  /// the machine beeps in s, is_leader matching, and transition(s,
  /// counts, rng) == (beeps(s) || counts[1] > 0 ? delta_top : delta_bot)
  /// with identical generator draws - return that machine. If its table
  /// matches a registered beepc kernel, the engine runs that kernel
  /// instead of the virtual display/transition calls. Default: nullptr
  /// (generic path).
  [[nodiscard]] virtual const beeping::state_machine* beep_machine() const {
    return nullptr;
  }
};

/// Synchronous stone-age engine: every node is activated every round
/// and transitions on the clipped census of the *current* round's
/// displayed symbols (double-buffered, like the beeping engine).
///
/// Fast path (automaton::beep_machine whose table matches a registered
/// beepc kernel - stone-age BFW always does, for every p): states are
/// held bit-sliced in ceil(log2 q) planes, the displayed-beep word is
/// maintained by the kernel's display sweep itself, and the whole
/// round - gather plus transition routing - is word-parallel and
/// tileable via set_parallelism. The planes are authoritative while
/// the fast path runs; states()/state_of()/displayed() unpack them
/// lazily on first read, exactly like the beeping engine's
/// plane-authoritative model. Every other automaton runs the generic
/// census path, which is also the reference the fast path is pinned
/// against.
class engine {
 public:
  /// Binds to a topology view (explicit graphs convert implicitly;
  /// implicit views route the fast path to the stencil kernels and the
  /// generic census path to arithmetic neighbor enumeration).
  engine(graph::topology_view view, const automaton& machine,
         std::uint32_t threshold, std::uint64_t seed);

  void step();
  void run_rounds(std::uint64_t count);

  /// Runs until at most one leader remains or max_rounds elapse; for
  /// leader-monotone automata this is the election round. As in the
  /// beeping engine, only exactly-one-leader counts as convergence -
  /// extinction (zero leaders) is a failed election.
  struct run_result {
    std::uint64_t rounds = 0;
    bool converged = false;   ///< exactly one leader at the stop round
    std::size_t leaders = 0;  ///< leader count at the stop round
  };
  run_result run_until_single_leader(std::uint64_t max_rounds);

  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] std::size_t leader_count() const noexcept {
    return leader_count_;
  }
  [[nodiscard]] state_id state_of(graph::node_id u) const {
    materialize();
    return states_[u];
  }
  [[nodiscard]] const std::vector<state_id>& states() const noexcept {
    materialize();
    return states_;
  }
  [[nodiscard]] symbol displayed(graph::node_id u) const {
    return machine_->display(state_of(u));
  }
  [[nodiscard]] graph::node_id sole_leader() const;
  [[nodiscard]] std::uint32_t threshold() const noexcept { return threshold_; }

  /// How many lazy plane-to-vector unpacks have happened (fast-path
  /// rounds write no state vector eagerly; reads materialize it).
  [[nodiscard]] std::uint64_t state_materializations() const noexcept {
    return materializations_;
  }

  /// Overrides the configuration (adversarial-initialization tests).
  void set_states(std::vector<state_id> states);

  /// Forces the generic census round (`enabled == false`) or
  /// re-enables the compiled-kernel fast path; bit-identical either way.
  void set_fast_path_enabled(bool enabled);
  [[nodiscard]] bool fast_path_active() const noexcept {
    return fast_enabled_ && compiled_kernel_ != nullptr;
  }

  /// Tiled intra-trial parallelism for the fast path (same contract as
  /// beeping::engine::set_parallelism: bit-identical for every
  /// (threads, tile_words) point; threads == 1 is the serial default).
  void set_parallelism(std::size_t threads, std::size_t tile_words = 0);
  [[nodiscard]] std::size_t parallel_threads() const noexcept {
    return exec_ ? exec_->thread_count() : 1;
  }
  [[nodiscard]] std::size_t tile_words() const noexcept {
    return tile_words_;
  }

  /// True iff the automaton bound a compiled display kernel (the fast
  /// path's precondition).
  [[nodiscard]] bool compiled_kernel_active() const noexcept {
    return compiled_kernel_ != nullptr;
  }
  /// Name of the matched compiled kernel ("" when none matched).
  [[nodiscard]] std::string compiled_kernel_name() const {
    return compiled_kernel_ != nullptr ? compiled_kernel_->name
                                       : std::string{};
  }
  /// Pins the kernel batch width (1, 2, 4 or 8 words per vector op;
  /// std::invalid_argument otherwise). Purely a throughput knob.
  void set_compiled_width(std::size_t width);
  [[nodiscard]] std::size_t compiled_width() const noexcept {
    return compiled_width_;
  }
  /// Fast-path rounds executed through a compiled kernel so far.
  [[nodiscard]] std::uint64_t compiled_rounds() const noexcept {
    return compiled_rounds_;
  }

  /// Pins one heard-gather kernel for the fast path (debugging and
  /// differential tests; kernels never change results). Throws
  /// std::invalid_argument when the kernel cannot serve this graph,
  /// and std::logic_error when the automaton binds no compiled kernel
  /// (no packed gather exists on the generic census path).
  void set_gather_kernel(graph::gather_kernel kernel);
  /// Attaches a dynamic-topology patch overlay to the fast-path gather
  /// (nullptr detaches); the overlay's exact per-touched-node fix runs
  /// after every base kernel, so churn works under every kernel and
  /// tiling. Same preconditions as set_gather_kernel (std::logic_error
  /// on the generic census path), std::invalid_argument on a
  /// node-count mismatch. The overlay must outlive the engine.
  void set_topology_patch(const graph::patch_overlay* patch);
  /// The kernel the most recent fast-path gather actually ran
  /// (auto_select when the generic census path is in use).
  [[nodiscard]] graph::gather_kernel gather_kernel_used() const noexcept {
    return gather_.has_value() ? gather_->last_used()
                               : graph::gather_kernel::auto_select;
  }

  /// Telemetry: engine-local probe toggle (same contract as
  /// beeping::engine — probes never change a number).
  void set_telemetry_enabled(bool enabled) noexcept {
    telemetry_enabled_ = enabled;
  }
  [[nodiscard]] bool telemetry_enabled() const noexcept {
    return telemetry_enabled_;
  }
  /// Per-engine probe scratch with tile claims and materializations
  /// folded in; hand to support::telemetry::fold_engine_metrics.
  [[nodiscard]] support::telemetry::engine_metrics telemetry_metrics() const;

 private:
  void refresh_counters();
  void step_fast();
  /// Packs states_ into the bit planes + the displayed-beep word (fast
  /// path entry: construction, set_states, re-enable).
  void pack_planes();
  /// Unpacks the authoritative planes back into states_ (lazy).
  void materialize() const;

  graph::topology_view view_;
  std::size_t n_ = 0;
  const automaton* machine_;
  std::uint32_t threshold_;
  // Set when the automaton's beep_machine() table matched a beepc
  // display kernel (planes + beep word + leader count, no active/ledger
  // upkeep): rounds then run bit-sliced through the same word-parallel
  // heard-gather kernels as the beeping engine (graph::heard_gather -
  // stencil / word-CSR push / packed pull), replacing the per-neighbor
  // virtual display() and per-node transition() calls. table_ points
  // into the automaton's machine.
  const beeping::compiled_kernel* compiled_kernel_ = nullptr;
  const beeping::machine_table* table_ = nullptr;
  bool fast_enabled_ = true;
  std::size_t compiled_width_ = support::simd::autotuned_width();
  std::uint64_t compiled_rounds_ = 0;
  std::optional<graph::heard_gather> gather_;     // fast path only
  std::vector<std::uint64_t> beep_words_;   // fast path: packed displays
  std::vector<std::uint64_t> heard_words_;  // fast path: packed heard set
  // Fast path: bit j of node u's state id lives in planes_[j]; the
  // authoritative representation while the fast path runs (states_ is
  // then a lazily-refreshed cache, valid iff states_valid_).
  std::array<std::vector<std::uint64_t>, 6> planes_;
  std::size_t plane_count_ = 0;
  std::uint64_t tail_mask_ = ~0ULL;
  mutable bool states_valid_ = true;
  mutable std::uint64_t materializations_ = 0;
  // Intra-trial tiling (set_parallelism); slot partials merged after
  // each tiled sweep.
  std::unique_ptr<support::tile_executor> exec_;
  std::size_t tile_words_ = 0;
  std::vector<std::size_t> slot_leaders_;
  support::rng_store rngs_;
  mutable std::vector<state_id> states_;
  std::vector<state_id> next_states_;  // generic path double buffer
  std::vector<std::uint32_t> census_;  // scratch: alphabet_size entries
  std::uint64_t round_ = 0;
  std::size_t leader_count_ = 0;
  // Telemetry scratch — bumped only from step(), never inside the
  // tiled word loops; folded at trial boundaries.
  support::telemetry::engine_metrics metrics_;
  bool telemetry_enabled_ = true;
};

}  // namespace beepkit::stoneage
