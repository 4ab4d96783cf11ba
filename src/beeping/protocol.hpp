// The beeping model of communication (paper Section 1.1).
//
// Execution proceeds in discrete rounds. In each round every node
// either beeps or listens; a listening node hears a beep iff at least
// one neighbor beeps (it cannot count beepers). A node that beeps in
// round t, or hears a beep, transitions by delta_top; otherwise by
// delta_bot.
//
// Two protocol layers are provided:
//
//  * `state_machine` - the paper's formal object
//    M = (Q_listen, Q_beep, q_s, delta_bot, delta_top): a probabilistic
//    finite-state machine, anonymous and uniform, held as transition
//    rows plus their compiled table. BFW (src/core/bfw.hpp) is one of
//    these.
//  * `protocol` - a generic round-level behaviour interface (the
//    packed heard set in, the packed beep set out, one call each per
//    round), which also
//    accommodates the unbounded-state baselines of Table 1 (unique IDs,
//    phase counters). `fsm_protocol` adapts any state_machine to it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace beepkit::beeping {

using state_id = std::uint16_t;

/// One transition row of a state_machine: the successor choice *and*
/// the exact generator draw the delta function performs, so a
/// table-driven round consumes the same random values, draw for draw,
/// as the reference gear's per-node delta_top/delta_bot calls.
struct transition_rule {
  enum class draw_kind : std::uint8_t {
    none,       ///< deterministic: the delta never touches the generator
    coin,       ///< exactly one rng.coin() (fair-bit accounting included)
    bernoulli,  ///< exactly one rng.bernoulli(p)
  };

  draw_kind draw = draw_kind::none;
  state_id next = 0;      ///< successor when draw == none
  state_id on_true = 0;   ///< successor when the draw fires
  state_id on_false = 0;  ///< successor when it does not
  double p = 0.0;         ///< bernoulli parameter

  [[nodiscard]] static transition_rule det(state_id next) {
    transition_rule r;
    r.next = next;
    return r;
  }
  [[nodiscard]] static transition_rule fair_coin(state_id on_true,
                                                 state_id on_false) {
    transition_rule r;
    r.draw = draw_kind::coin;
    r.on_true = on_true;
    r.on_false = on_false;
    return r;
  }
  [[nodiscard]] static transition_rule bernoulli_draw(double p,
                                                      state_id on_true,
                                                      state_id on_false) {
    transition_rule r;
    r.draw = draw_kind::bernoulli;
    r.p = p;
    r.on_true = on_true;
    r.on_false = on_false;
    return r;
  }
};

/// Applies one rule, performing exactly the draw its kind names.
[[nodiscard]] inline state_id apply_rule(const transition_rule& rule,
                                         support::node_stream rng) {
  switch (rule.draw) {
    case transition_rule::draw_kind::none:
      return rule.next;
    case transition_rule::draw_kind::coin:
      return rng.coin() ? rule.on_true : rule.on_false;
    case transition_rule::draw_kind::bernoulli:
      return rng.bernoulli(rule.p) ? rule.on_true : rule.on_false;
  }
  return rule.next;  // unreachable: draw_kind is exhaustive
}

/// The same, drawing from stream `u` of `rngs` - the form the fast
/// gears' per-node loops use. A lazy store materializes the stream
/// once and draws through the generator, so the loop carries one
/// lazy draw site instead of one per draw kind.
[[nodiscard]] inline state_id apply_rule(const transition_rule& rule,
                                         const support::rng_source& rngs,
                                         std::size_t u) {
  switch (rule.draw) {
    case transition_rule::draw_kind::none:
      return rule.next;
    case transition_rule::draw_kind::coin:
      if (rngs.hot == nullptr) break;
      return rngs.coin(u) ? rule.on_true : rule.on_false;
    case transition_rule::draw_kind::bernoulli:
      if (rngs.hot == nullptr) break;
      return rngs.bernoulli(u, rule.p) ? rule.on_true : rule.on_false;
  }
  return apply_rule(rule, rngs.store->at(rngs.slot, u));
}

/// Flat compiled form of a state_machine M = (Q_listen, Q_beep, q_s,
/// delta_bot, delta_top): per-state beep/leader membership bytes plus
/// the two transition rows, laid out so one round over the raw state
/// vector needs one indexed load per node. Built by
/// core::compile_spec_table.
struct machine_table {
  /// rules[(s << 1) | heard]: delta_bot row at even slots, delta_top at
  /// odd - one indexed load per node per round.
  std::vector<transition_rule> rules;
  std::vector<std::uint8_t> beep_flag;    ///< Q_beep membership
  std::vector<std::uint8_t> leader_flag;  ///< L membership (Definition 1)
  /// The bot row is a draw-free self-loop: under silence the node
  /// neither changes state nor consumes randomness, so a bulk sweep can
  /// skip it entirely without perturbing any generator.
  std::vector<std::uint8_t> bot_identity;
  /// beep | leader << 1 | bot_identity << 2, fused so the round sweep
  /// pays one byte load per state lookup instead of three.
  std::vector<std::uint8_t> meta;

  static constexpr std::uint8_t meta_beep = 1;
  static constexpr std::uint8_t meta_leader = 2;
  static constexpr std::uint8_t meta_bot_identity = 4;

  [[nodiscard]] std::size_t state_count() const noexcept {
    return beep_flag.size();
  }
  [[nodiscard]] const transition_rule& rule(state_id s,
                                            bool heard) const noexcept {
    return rules[(static_cast<std::size_t>(s) << 1) | (heard ? 1U : 0U)];
  }
  [[nodiscard]] bool beeps(state_id s) const noexcept {
    return beep_flag[s] != 0;
  }
  [[nodiscard]] bool is_leader(state_id s) const noexcept {
    return leader_flag[s] != 0;
  }
};

/// The paper's probabilistic finite-state machine
/// M = (Q_listen, Q_beep, q_s, delta_bot, delta_top), in the one form
/// every engine runs: the per-state silent (delta_bot) and heard
/// (delta_top) rows as data, plus their flat machine_table, compiled
/// once at construction. All per-node state lives in the state id,
/// which is exactly the anonymity/uniformity restriction of the paper.
/// core::spec_machine builds one from a protocol_spec.
class state_machine {
 public:
  /// `table` must be the compiled form of `silent`/`heard` (see
  /// core::compile_spec_table); the rows are kept separately so the
  /// reference gear replays them independently of the table layout.
  state_machine(std::string name, std::vector<std::string> state_names,
                state_id initial, std::vector<transition_rule> silent,
                std::vector<transition_rule> heard, machine_table table)
      : name_(std::move(name)),
        state_names_(std::move(state_names)),
        initial_(initial),
        silent_(std::move(silent)),
        heard_(std::move(heard)),
        table_(std::move(table)) {}

  [[nodiscard]] std::size_t state_count() const noexcept {
    return state_names_.size();
  }
  /// q_s; every node starts here (anonymous protocols cannot
  /// distinguish nodes at start-up).
  [[nodiscard]] state_id initial_state() const noexcept { return initial_; }
  /// True iff the state belongs to Q_beep.
  [[nodiscard]] bool beeps(state_id state) const noexcept {
    return table_.beeps(state);
  }
  /// True iff the state belongs to the leader set L of Definition 1.
  [[nodiscard]] bool is_leader(state_id state) const noexcept {
    return table_.is_leader(state);
  }
  /// delta_top: applied when the node beeped or heard a beep.
  [[nodiscard]] state_id delta_top(state_id state,
                                   support::node_stream rng) const {
    return apply_rule(heard_[state], rng);
  }
  /// delta_bot: applied when the node and its whole neighborhood were
  /// silent.
  [[nodiscard]] state_id delta_bot(state_id state,
                                   support::node_stream rng) const {
    return apply_rule(silent_[state], rng);
  }
  /// The state's label; "?" for an out-of-range id.
  [[nodiscard]] std::string state_name(state_id state) const {
    return state < state_names_.size() ? state_names_[state] : "?";
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// The compiled form the engines' fast gears run.
  [[nodiscard]] const machine_table& table() const noexcept { return table_; }

 private:
  std::string name_;
  std::vector<std::string> state_names_;
  state_id initial_ = 0;
  std::vector<transition_rule> silent_;
  std::vector<transition_rule> heard_;
  machine_table table_;
};

/// Generic protocol behaviour driven by `engine`, one round at a time.
/// One protocol instance owns the states of all nodes of one
/// simulation. Rounds cross this interface as packed node sets (bit u
/// of word u/64 is node u; bits past the node count are zero), so a
/// protocol whose nodes move in lockstep can run a round as a handful
/// of word ops instead of one call per node.
class protocol {
 public:
  virtual ~protocol() = default;

  /// (Re)initializes per-node state for an n-node network. `init_rng`
  /// may be used to draw identifiers etc. (baselines); anonymous
  /// protocols ignore it.
  virtual void reset(std::size_t node_count, support::rng& init_rng) = 0;

  /// Writes the current round's beep set B_t into `beep` (every word,
  /// ceil(n/64) of them; bits past the node count zero) and returns the
  /// number of nodes currently in a leader state.
  virtual std::size_t write_beeps(std::span<std::uint64_t> beep) const = 0;

  /// Advances every node to its next-round state. `heard` is the
  /// delta_top set: node u's bit is set iff u beeped itself or at least
  /// one neighbor beeped. Node u draws only from stream u of `rngs`
  /// (rngs.coin(u), ...), so the per-node draw sequences do not depend
  /// on the order nodes are visited in.
  virtual void step_round(std::span<const std::uint64_t> heard,
                          const support::rng_source& rngs) = 0;

  /// Whether `node` currently occupies a leader state.
  [[nodiscard]] virtual bool is_leader(graph::node_id node) const = 0;

  /// Short human-readable state label (for traces/visualization).
  [[nodiscard]] virtual std::string describe(graph::node_id node) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Adapts a state_machine to the engine's protocol interface, holding
/// the vector of per-node states. Exposes raw state ids so invariant
/// checkers and trace recorders can inspect configurations.
///
/// Lazy materialization: when an engine runs this protocol in its
/// word-parallel plane gear, the engine-owned bit planes are the
/// authoritative state representation and the uint16 vector here is a
/// cache. The engine registers a `lazy_source` and marks the vector
/// stale after each plane round; the first outside read (states(),
/// state_of, is_leader, describe, write_beeps - or a step_round) unpacks
/// the planes on demand. Rounds nobody observes therefore pay zero
/// state write-back; a reader every round degrades gracefully to one
/// O(n/64 word-transpose) unpack per round, the cost the eager
/// write-back used to pay unconditionally. materialization_count()
/// exposes how many unpacks actually happened (tests pin the
/// "plane rounds write nothing eagerly" contract with it).
class fsm_protocol final : public protocol {
 public:
  /// Engine-side unpack hook for the plane-authoritative state model.
  /// materialize_states must rewrite `out` (the full state vector) to
  /// the current configuration; it is called at most once per
  /// mark_states_stale().
  class lazy_source {
   public:
    virtual ~lazy_source() = default;
    virtual void materialize_states(std::span<state_id> out) = 0;
  };

  /// The machine must outlive this adapter.
  explicit fsm_protocol(const state_machine& machine) : machine_(&machine) {}

  void reset(std::size_t node_count, support::rng& init_rng) override;

  /// Giant-mode reset: records the node count and marks the vector
  /// stale WITHOUT materializing the O(n) initial configuration - the
  /// binding engine's planes (seeded from the same initial state)
  /// become the authority at round 0. The vector is sized lazily on
  /// the first outside read.
  void reset_deferred(std::size_t node_count);
  /// Per-node table lookups over the state vector. The beeping engine
  /// never calls these two on an fsm_protocol (it runs the machine's
  /// table itself); the radio engine does.
  std::size_t write_beeps(std::span<std::uint64_t> beep) const override;
  /// Replays delta_top/delta_bot node by node, in ascending order.
  void step_round(std::span<const std::uint64_t> heard,
                  const support::rng_source& rngs) override;
  [[nodiscard]] bool is_leader(graph::node_id node) const override;
  [[nodiscard]] std::string describe(graph::node_id node) const override;
  [[nodiscard]] std::string name() const override { return machine_->name(); }

  [[nodiscard]] state_id state_of(graph::node_id node) const {
    materialize();
    return states_[node];
  }
  [[nodiscard]] const std::vector<state_id>& states() const noexcept {
    materialize();
    return states_;
  }
  /// Overrides the configuration (used by the adversarial-initialization
  /// experiments of Section 5). The vector must hold one valid machine
  /// state per node - a size mismatch or an out-of-range id throws
  /// std::invalid_argument and leaves the configuration untouched.
  ///
  /// Contract: any engine bound to this protocol computes its round
  /// bookkeeping (beep set, leader count) from the configuration, so
  /// after set_states you MUST call engine::restart_from_protocol()
  /// before stepping that engine again; the engine fails fast
  /// (std::logic_error) if the call is forgotten.
  void set_states(std::vector<state_id> states);

  [[nodiscard]] const state_machine& machine() const noexcept {
    return *machine_;
  }

  /// Bumped whenever the configuration is replaced wholesale (reset or
  /// set_states). Engines record the version they last synchronized
  /// with and refuse to step on a stale one.
  [[nodiscard]] std::uint64_t config_version() const noexcept {
    return config_version_;
  }

  /// Raw mutable state vector for the engine's table-driven sweep.
  /// Engine-internal: writers must store valid machine states and keep
  /// their own bookkeeping consistent (per-node transitions do not bump
  /// config_version()). Never triggers materialization - the engine is
  /// the authority while the vector is stale and must ensure freshness
  /// itself (ensure_states_fresh) before reading through this.
  [[nodiscard]] std::span<state_id> raw_states() noexcept { return states_; }

  /// Registers `src` as the authority behind a stale state vector. If
  /// a previous source left the vector stale, it is materialized first
  /// (its planes are about to stop being maintained). A deferred reset
  /// with no source bound needs no rescue - its truth is "initial
  /// state everywhere", exactly what the new source seeds from.
  /// Engine-internal.
  void bind_lazy_source(lazy_source* src) {
    if (source_ != nullptr && source_ != src) materialize();
    source_ = src;
  }
  /// Detaches `src` if it is the bound source, materializing any stale
  /// state first so the vector never outlives its authority while
  /// stale. No-op when another source took over. Engine-internal.
  void unbind_lazy_source(lazy_source* src) {
    if (source_ != src) return;
    materialize();
    source_ = nullptr;
  }

  /// Giant-mode detach: drops the authority WITHOUT the O(n)
  /// materialization (a 10^9-node pinned engine must never unpack).
  /// The configuration is lost; the protocol requires a reset before
  /// reuse. Engine-internal, pinned engines only.
  void abandon_lazy_source(lazy_source* src) noexcept {
    if (source_ != src) return;
    source_ = nullptr;
    states_stale_ = false;
    states_.clear();
    deferred_nodes_ = 0;
    ++config_version_;
  }
  /// Marks the vector stale (planes authoritative). No-op unless a
  /// lazy source is bound. Engine-internal, called after plane rounds.
  void mark_states_stale() noexcept {
    if (source_ != nullptr) states_stale_ = true;
  }
  /// Forces materialization now (no-op when fresh). The engine calls
  /// this when its own sweeps are about to read the raw vector.
  void ensure_states_fresh() const { materialize(); }
  [[nodiscard]] bool states_stale() const noexcept { return states_stale_; }
  /// How many lazy unpacks have happened since construction. A
  /// plane-gear run with no outside readers keeps this at zero - the
  /// acceptance counter for "plane rounds perform no eager state
  /// write-backs".
  [[nodiscard]] std::uint64_t materialization_count() const noexcept {
    return materializations_;
  }

 private:
  // Hot guard + cold unpack split: the per-node accessors (is_leader,
  // state_of) sit in tight loops, so the fresh case must cost exactly
  // one predictable branch.
  void materialize() const {
    if (states_stale_) [[unlikely]] {
      materialize_cold();
    }
  }
  void materialize_cold() const;

  const state_machine* machine_;
  // mutable: the vector is a lazily-refreshed cache of the bound
  // source's planes; const readers fill it on demand.
  mutable std::vector<state_id> states_;
  mutable bool states_stale_ = false;
  mutable std::uint64_t materializations_ = 0;
  lazy_source* source_ = nullptr;
  std::uint64_t config_version_ = 0;
  // Nonzero after reset_deferred: the node count the lazily-sized
  // vector must grow to on first materialization.
  std::size_t deferred_nodes_ = 0;
};

}  // namespace beepkit::beeping
