#include "core/protocol_spec.hpp"

#include <set>
#include <sstream>
#include <stdexcept>

namespace beepkit::core {

namespace {

using beeping::state_id;
using beeping::transition_rule;

[[noreturn]] void spec_error(const std::string& what) {
  throw std::invalid_argument("protocol_spec: " + what);
}

void check_rule(const protocol_spec& spec, const transition_rule& rule,
                std::size_t state, const char* row) {
  const auto q = spec.states.size();
  const auto bad = [&](state_id successor) { return successor >= q; };
  if (rule.draw == transition_rule::draw_kind::none) {
    if (bad(rule.next)) {
      spec_error(spec.name + ": " + row + " successor of state " +
                 spec.states[state].name + " out of range");
    }
    return;
  }
  if (bad(rule.on_true) || bad(rule.on_false)) {
    spec_error(spec.name + ": " + row + " successor of state " +
               spec.states[state].name + " out of range");
  }
  if (rule.draw == transition_rule::draw_kind::bernoulli &&
      !(rule.p >= 0.0 && rule.p <= 1.0)) {
    spec_error(spec.name + ": bernoulli parameter of state " +
               spec.states[state].name + " outside [0, 1]");
  }
}

}  // namespace

state_id protocol_spec::add_state(std::string state_name, bool beeps,
                                  bool is_leader) {
  const auto id = static_cast<state_id>(states.size());
  states.push_back({std::move(state_name), beeps, is_leader});
  silent.push_back(transition_rule::det(id));
  heard.push_back(transition_rule::det(id));
  return id;
}

void protocol_spec::set_silent(state_id state, transition_rule rule) {
  silent.at(state) = rule;
}

void protocol_spec::set_heard(state_id state, transition_rule rule) {
  heard.at(state) = rule;
}

state_id protocol_spec::add_patience_chain(const std::string& name_prefix,
                                           std::uint32_t count,
                                           state_id heard_target,
                                           state_id timeout_target) {
  if (count == 0) spec_error("patience chain needs at least one state");
  const auto first = static_cast<state_id>(states.size());
  for (std::uint32_t k = 0; k < count; ++k) {
    const state_id s =
        add_state(name_prefix + "(" + std::to_string(k) + ")");
    set_heard(s, transition_rule::det(heard_target));
    set_silent(s, transition_rule::det(
                      k + 1 < count ? static_cast<state_id>(s + 1)
                                    : timeout_target));
  }
  return first;
}

void protocol_spec::validate() const {
  const std::size_t q = states.size();
  if (q == 0) spec_error(name + ": no states");
  if (q > std::size_t{1} << 16) spec_error(name + ": too many states");
  if (silent.size() != q || heard.size() != q) {
    spec_error(name + ": rule rows do not cover every state");
  }
  if (initial >= q) spec_error(name + ": initial state out of range");
  std::set<std::string> seen;
  for (std::size_t s = 0; s < q; ++s) {
    if (states[s].name.empty()) spec_error(name + ": unnamed state");
    if (!seen.insert(states[s].name).second) {
      spec_error(name + ": duplicate state name " + states[s].name);
    }
    check_rule(*this, silent[s], s, "silent");
    check_rule(*this, heard[s], s, "heard");
  }
}

beeping::machine_table compile_spec_table(const protocol_spec& spec) {
  spec.validate();
  const std::size_t q = spec.states.size();
  beeping::machine_table table;
  table.rules.resize(2 * q);
  table.beep_flag.resize(q);
  table.leader_flag.resize(q);
  table.bot_identity.resize(q);
  table.meta.resize(q);
  for (std::size_t s = 0; s < q; ++s) {
    table.rules[2 * s] = spec.silent[s];
    table.rules[2 * s + 1] = spec.heard[s];
    table.beep_flag[s] = spec.states[s].beep ? 1 : 0;
    table.leader_flag[s] = spec.states[s].leader ? 1 : 0;
    table.bot_identity[s] =
        (spec.silent[s].draw == transition_rule::draw_kind::none &&
         spec.silent[s].next == s)
            ? 1
            : 0;
    table.meta[s] = static_cast<std::uint8_t>(
        (table.beep_flag[s] != 0 ? beeping::machine_table::meta_beep : 0) |
        (table.leader_flag[s] != 0 ? beeping::machine_table::meta_leader : 0) |
        (table.bot_identity[s] != 0 ? beeping::machine_table::meta_bot_identity
                                    : 0));
  }
  return table;
}

// ---- JSON form -------------------------------------------------------

namespace {

support::json rule_to_json(const protocol_spec& spec,
                           const transition_rule& rule) {
  support::json out;
  switch (rule.draw) {
    case transition_rule::draw_kind::none:
      out.set("next", spec.states[rule.next].name);
      break;
    case transition_rule::draw_kind::coin:
      out.set("coin", true);
      out.set("then", spec.states[rule.on_true].name);
      out.set("else", spec.states[rule.on_false].name);
      break;
    case transition_rule::draw_kind::bernoulli:
      out.set("bernoulli", rule.p);
      out.set("then", spec.states[rule.on_true].name);
      out.set("else", spec.states[rule.on_false].name);
      break;
  }
  return out;
}

state_id resolve_state(const protocol_spec& spec, const support::json* value,
                       const char* what) {
  if (value == nullptr || !value->is_string()) {
    spec_error(std::string("JSON: missing state reference in ") + what);
  }
  const std::string name = value->as_string();
  for (std::size_t s = 0; s < spec.states.size(); ++s) {
    if (spec.states[s].name == name) return static_cast<state_id>(s);
  }
  spec_error("JSON: unknown state \"" + name + "\" in " + what);
}

transition_rule rule_from_json(const protocol_spec& spec,
                               const support::json& doc, const char* what) {
  if (!doc.is_object()) spec_error(std::string("JSON: rule ") + what +
                                   " is not an object");
  if (const support::json* coin = doc.find("coin"); coin != nullptr) {
    if (!coin->as_bool()) spec_error(std::string("JSON: \"coin\": false in ") +
                                     what + " (omit the key instead)");
    return transition_rule::fair_coin(
        resolve_state(spec, doc.find("then"), what),
        resolve_state(spec, doc.find("else"), what));
  }
  if (const support::json* p = doc.find("bernoulli"); p != nullptr) {
    if (!p->is_number()) spec_error(
        std::string("JSON: \"bernoulli\" is not a number in ") + what);
    return transition_rule::bernoulli_draw(
        p->as_double(), resolve_state(spec, doc.find("then"), what),
        resolve_state(spec, doc.find("else"), what));
  }
  if (doc.find("next") != nullptr) {
    return transition_rule::det(resolve_state(spec, doc.find("next"), what));
  }
  spec_error(std::string("JSON: rule ") + what +
             " has none of \"next\"/\"coin\"/\"bernoulli\"");
}

}  // namespace

support::json protocol_spec::to_json() const {
  validate();
  support::json doc;
  doc.set("name", name);
  support::json::array state_docs;
  for (const state_def& s : states) {
    support::json entry;
    entry.set("name", s.name);
    entry.set("beep", s.beep);
    entry.set("leader", s.leader);
    state_docs.push_back(std::move(entry));
  }
  doc.set("states", support::json(std::move(state_docs)));
  doc.set("initial", states[initial].name);
  support::json::array rule_docs;
  for (std::size_t s = 0; s < states.size(); ++s) {
    support::json entry;
    entry.set("state", states[s].name);
    entry.set("silent", rule_to_json(*this, silent[s]));
    entry.set("heard", rule_to_json(*this, heard[s]));
    rule_docs.push_back(std::move(entry));
  }
  doc.set("rules", support::json(std::move(rule_docs)));
  return doc;
}

protocol_spec protocol_spec::from_json(const support::json& doc) {
  if (!doc.is_object()) spec_error("JSON: document is not an object");
  protocol_spec spec;
  if (const support::json* n = doc.find("name"); n != nullptr) {
    spec.name = n->as_string();
  }
  const support::json* states = doc.find("states");
  if (states == nullptr || !states->is_array() || states->as_array().empty()) {
    spec_error("JSON: missing or empty \"states\" array");
  }
  for (const support::json& entry : states->as_array()) {
    const support::json* n = entry.find("name");
    if (n == nullptr || !n->is_string()) {
      spec_error("JSON: state entry without a \"name\"");
    }
    const support::json* beep = entry.find("beep");
    const support::json* leader = entry.find("leader");
    spec.add_state(n->as_string(), beep != nullptr && beep->as_bool(),
                   leader != nullptr && leader->as_bool());
  }
  spec.initial = resolve_state(spec, doc.find("initial"), "\"initial\"");
  const support::json* rules = doc.find("rules");
  if (rules == nullptr || !rules->is_array()) {
    spec_error("JSON: missing \"rules\" array");
  }
  std::vector<bool> covered(spec.states.size(), false);
  for (const support::json& entry : rules->as_array()) {
    const state_id s = resolve_state(spec, entry.find("state"), "\"rules\"");
    if (covered[s]) {
      spec_error("JSON: duplicate rules entry for state " +
                 spec.states[s].name);
    }
    covered[s] = true;
    const support::json* silent = entry.find("silent");
    const support::json* heard = entry.find("heard");
    if (silent == nullptr || heard == nullptr) {
      spec_error("JSON: rules entry for state " + spec.states[s].name +
                 " needs both \"silent\" and \"heard\"");
    }
    spec.set_silent(s, rule_from_json(spec, *silent, "\"silent\""));
    spec.set_heard(s, rule_from_json(spec, *heard, "\"heard\""));
  }
  for (std::size_t s = 0; s < covered.size(); ++s) {
    if (!covered[s]) {
      spec_error("JSON: no rules entry for state " + spec.states[s].name);
    }
  }
  spec.validate();
  return spec;
}

protocol_spec protocol_spec::from_json_text(std::string_view text) {
  const std::optional<support::json> doc = support::json::parse(text);
  if (!doc.has_value()) spec_error("JSON: malformed document");
  return from_json(*doc);
}

// ---- spec_machine ----------------------------------------------------

namespace {

std::vector<std::string> state_names(const protocol_spec& spec) {
  std::vector<std::string> names;
  names.reserve(spec.states.size());
  for (const protocol_spec::state_def& s : spec.states) {
    names.push_back(s.name);
  }
  return names;
}

}  // namespace

// compile_spec_table validates before the base is built from the spec.
spec_machine::spec_machine(protocol_spec spec)
    : beeping::state_machine(spec.name, state_names(spec), spec.initial,
                             spec.silent, spec.heard,
                             compile_spec_table(spec)),
      spec_(std::move(spec)) {}

std::unique_ptr<spec_machine> make_protocol(protocol_spec spec) {
  return std::make_unique<spec_machine>(std::move(spec));
}

// ---- bundled specs ---------------------------------------------------

protocol_spec bfw_spec(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("bfw_spec: p must lie in (0, 1)");
  }
  using rule = transition_rule;
  protocol_spec spec;
  std::ostringstream name;
  name << "BFW(p=" << p << ")";
  spec.name = name.str();
  const state_id WL = spec.add_state("W*", false, true);
  const state_id BL = spec.add_state("B*", true, true);
  const state_id FL = spec.add_state("F*", false, true);
  const state_id WF = spec.add_state("Wo");
  const state_id BF = spec.add_state("Bo", true);
  const state_id FF = spec.add_state("Fo");
  spec.initial = WL;
  // delta_bot(W•) is the Figure-1 coin: rng::coin() when p = 1/2 so the
  // one-fair-bit-per-round accounting of Section 1.3 holds.
  spec.set_silent(WL, p == 0.5 ? rule::fair_coin(BL, WL)
                               : rule::bernoulli_draw(p, BL, WL));
  spec.set_heard(WL, rule::det(BF));  // eliminated, beeps once
  spec.set_silent(BL, rule::det(FL));  // unreachable (beepers take top)
  spec.set_heard(BL, rule::det(FL));
  spec.set_silent(FL, rule::det(WL));  // frozen ignores the environment
  spec.set_heard(FL, rule::det(WL));
  spec.set_silent(WF, rule::det(WF));  // the draw-free self-loop
  spec.set_heard(WF, rule::det(BF));   // relays the wave
  spec.set_silent(BF, rule::det(FF));  // unreachable
  spec.set_heard(BF, rule::det(FF));
  spec.set_silent(FF, rule::det(WF));
  spec.set_heard(FF, rule::det(WF));
  spec.validate();
  return spec;
}

protocol_spec timeout_bfw_spec(double p, std::uint32_t timeout) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("timeout_bfw_spec: p must lie in (0, 1)");
  }
  if (timeout == 0) {
    throw std::invalid_argument("timeout_bfw_spec: timeout must be >= 1");
  }
  using rule = transition_rule;
  protocol_spec spec;
  std::ostringstream name;
  name << "TimeoutBFW(p=" << p << ",T=" << timeout << ")";
  spec.name = name.str();
  const state_id WL = spec.add_state("W*", false, true);
  const state_id BL = spec.add_state("B*", true, true);
  const state_id FL = spec.add_state("F*", false, true);
  const state_id BF = spec.add_state("Bo", true);
  const state_id FF = spec.add_state("Fo");
  spec.initial = WL;
  spec.set_silent(WL, rule::bernoulli_draw(p, BL, WL));
  spec.set_heard(WL, rule::det(BF));
  spec.set_silent(BL, rule::det(FL));  // unreachable
  spec.set_heard(BL, rule::det(FL));
  spec.set_silent(FL, rule::det(WL));
  spec.set_heard(FL, rule::det(WL));
  spec.set_silent(BF, rule::det(FF));  // unreachable
  spec.set_heard(BF, rule::det(FF));
  // W◦(k): silence ticks the patience counter, W◦(T-1) is reborn as
  // W•; hearing a beep relays (patience restarts through F◦ -> W◦(0)).
  const state_id chain = spec.add_patience_chain("Wo", timeout, BF, WL);
  spec.set_silent(FF, rule::det(chain));
  spec.set_heard(FF, rule::det(chain));
  spec.validate();
  return spec;
}

protocol_spec bw_spec(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("bw_spec: p must lie in (0, 1)");
  }
  using rule = transition_rule;
  protocol_spec spec;
  std::ostringstream name;
  name << "BW-ablation(p=" << p << ")";
  spec.name = name.str();
  const state_id WL = spec.add_state("W*", false, true);
  const state_id BL = spec.add_state("B*", true, true);
  const state_id WF = spec.add_state("Wo");
  const state_id BF = spec.add_state("Bo", true);
  spec.initial = WL;
  spec.set_silent(WL, rule::bernoulli_draw(p, BL, WL));
  spec.set_heard(WL, rule::det(BF));  // eliminated, relays once
  spec.set_silent(BL, rule::det(WL));
  spec.set_heard(BL, rule::det(WL));  // no freeze: straight back to waiting
  spec.set_silent(WF, rule::det(WF));  // the draw-free self-loop
  spec.set_heard(WF, rule::det(BF));
  spec.set_silent(BF, rule::det(WF));
  spec.set_heard(BF, rule::det(WF));
  spec.validate();
  return spec;
}

}  // namespace beepkit::core
