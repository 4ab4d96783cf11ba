// Declarative protocol specifications: the one way to define a beeping
// state machine M = (Q_listen, Q_beep, q_s, delta_bot, delta_top).
//
// A `protocol_spec` lists the states (with their beep/leader flags) and
// the two transition rows per state as data; `make_protocol` turns a
// spec into a runnable state_machine (rows plus compiled table), so a
// protocol defined only as a JSON document runs end-to-end through the
// engine with no recompilation. The bundled machines (bfw_machine,
// timeout_bfw_machine, bw_machine) are thin wrappers over the spec
// factories below - the spec is the single source of truth for their
// transition structure.
//
// The same spec feeds `tools/beepc`, the ahead-of-time protocol
// compiler: beepc consumes a spec (JSON or the in-code builder) and
// emits a specialized SIMD round kernel with the transition masks baked
// in as constexpr (src/beeping/compiled_sweep.hpp), which registers
// itself in the kernel registry and dispatches at engine bind time next
// to the engine's interpreted plane sweep.
//
// JSON schema (see README "Protocol specs"):
//   {
//     "name": "BFW(p=0.5)",
//     "states": [{"name": "W*", "beep": false, "leader": true}, ...],
//     "initial": "W*",
//     "rules": [
//       {"state": "W*",
//        "silent": {"coin": true, "then": "B*", "else": "W*"},
//        "heard":  {"next": "Bo"}},
//       ...
//     ]
//   }
// Rule forms: {"next": S} (deterministic), {"coin": true, "then": A,
// "else": B} (one fair rng::coin()), {"bernoulli": p, "then": A,
// "else": B} (one rng::bernoulli(p)). Every state needs both rows.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "beeping/protocol.hpp"
#include "support/json.hpp"

namespace beepkit::core {

struct protocol_spec {
  struct state_def {
    std::string name;
    bool beep = false;
    bool leader = false;
  };

  std::string name;
  std::vector<state_def> states;
  /// Per-state transition rows, indexed by state id: silent[s] is
  /// delta_bot, heard[s] is delta_top. The transition_rule draw kinds
  /// encode exactly which generator draw the row performs, so every
  /// gear running the spec is draw-for-draw reproducible.
  std::vector<beeping::transition_rule> silent;
  std::vector<beeping::transition_rule> heard;
  beeping::state_id initial = 0;

  // ---- in-code builder -----------------------------------------------
  /// Appends a state and returns its id. Rows default to draw-free
  /// self-loops until set_silent/set_heard replace them.
  beeping::state_id add_state(std::string state_name, bool beeps = false,
                              bool is_leader = false);
  void set_silent(beeping::state_id state, beeping::transition_rule rule);
  void set_heard(beeping::state_id state, beeping::transition_rule rule);
  /// Appends a patience chain Wo(0..count-1): silence increments the
  /// counter (delta_bot(k) = k+1), the last state's silence promotes to
  /// `timeout_target`, and hearing a beep sends every member to
  /// `heard_target`. Returns the id of the first chain state. The
  /// engine's plane gear detects the run and ticks it as a bit-sliced
  /// ripple-carry counter; beepc bakes the chain bounds into the
  /// generated kernel.
  beeping::state_id add_patience_chain(const std::string& name_prefix,
                                       std::uint32_t count,
                                       beeping::state_id heard_target,
                                       beeping::state_id timeout_target);

  /// Structural validation: both rows present for every state, all
  /// successors in range, bernoulli parameters in [0, 1], initial state
  /// valid, state names unique and non-empty. Throws
  /// std::invalid_argument on the first violation.
  void validate() const;

  // ---- JSON form -----------------------------------------------------
  [[nodiscard]] support::json to_json() const;
  /// Parses and validates a spec; throws std::invalid_argument on
  /// schema violations (unknown state names, missing rows, bad rule
  /// forms).
  [[nodiscard]] static protocol_spec from_json(const support::json& doc);
  /// Convenience: parse from JSON text (one document).
  [[nodiscard]] static protocol_spec from_json_text(std::string_view text);
};

/// Validates a spec and compiles it into the engines' flat table form:
/// rule(s, false) is silent[s], rule(s, true) is heard[s], and the
/// beep/leader/bot-identity bytes follow the state flags.
[[nodiscard]] beeping::machine_table compile_spec_table(
    const protocol_spec& spec);

/// A spec as the paper's probabilistic state machine: the one builder
/// of beeping::state_machine, behind make_protocol and the bundled
/// machine wrappers. The machine's rows are the spec's rows and its
/// table is compile_spec_table(spec).
class spec_machine : public beeping::state_machine {
 public:
  /// Validates; throws std::invalid_argument on a malformed spec.
  explicit spec_machine(protocol_spec spec);

  [[nodiscard]] const protocol_spec& spec() const noexcept { return spec_; }

 private:
  protocol_spec spec_;
};

/// The one protocol factory: any spec - bundled, built in code, or
/// parsed from JSON - becomes a runnable machine.
[[nodiscard]] std::unique_ptr<spec_machine> make_protocol(protocol_spec spec);

// ---- bundled protocol specs ------------------------------------------
// The construction path behind bfw_machine / timeout_bfw_machine /
// bw_machine; usable directly wherever a spec is wanted (beepc, JSON
// export, spec-based runners).

/// Figure-1 BFW. With p = 1/2 the W• silence rule is a fair coin
/// (rng::coin(), Section 1.3 bit accounting); otherwise bernoulli(p).
[[nodiscard]] protocol_spec bfw_spec(double p);
/// Timeout-BFW(T): BFW plus a T-state follower patience chain.
[[nodiscard]] protocol_spec timeout_bfw_spec(double p, std::uint32_t timeout);
/// The BW ablation: BFW without the Frozen state (broken by design).
[[nodiscard]] protocol_spec bw_spec(double p);

}  // namespace beepkit::core
