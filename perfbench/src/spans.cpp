#include "spans.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "support/json.hpp"
#include "support/telemetry.hpp"

namespace perfbench {

namespace tel = beepkit::support::telemetry;

namespace {

/// The layer of a span category: the benchmark's spans use layer
/// names; the library's engine spans are the beeping layer.
std::string layer_of(const std::string& cat) {
  return cat == "engine" ? "beeping" : cat;
}

struct event {
  std::string name;
  std::string layer;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::uint64_t tid = 0;
  double child_us = 0.0;
};

}  // namespace

double span_summary::total_s(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.total_s;
}

double span_summary::self_s(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.self_s;
}

std::uint64_t span_summary::count(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0 : it->second.count;
}

bool span_summary::add_chrome_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  const std::optional<beepkit::support::json> doc =
      beepkit::support::json::parse(text.str());
  const beepkit::support::json* events_json =
      doc ? doc->find("traceEvents") : nullptr;
  if (events_json == nullptr) return false;

  std::vector<event> events;
  events.reserve(events_json->as_array().size());
  for (const beepkit::support::json& e : events_json->as_array()) {
    const auto* name = e.find("name");
    const auto* cat = e.find("cat");
    const auto* ts = e.find("ts");
    const auto* dur = e.find("dur");
    const auto* tid = e.find("tid");
    if (!name || !cat || !ts || !dur || !tid) return false;
    // The sweep's own per-trial span is stamped from a second clock
    // read after the trial, so it can start after the benchmark's
    // wrapper span around the same call and would nest inside it; the
    // wrapper already times that call, so the sweep's span is left out.
    if (cat->as_string() == "sweep" && name->as_string() == "trial") continue;
    events.push_back({name->as_string(), layer_of(cat->as_string()),
                      ts->as_double(), dur->as_double(), tid->as_u64()});
  }
  // Per thread by start, an enclosing span before the spans it holds.
  std::sort(events.begin(), events.end(), [](const event& a, const event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.dur_us > b.dur_us;
  });
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    event& e = events[i];
    while (!open.empty() &&
           (events[open.back()].tid != e.tid ||
            events[open.back()].start_us + events[open.back()].dur_us <=
                e.start_us)) {
      open.pop_back();
    }
    if (!open.empty()) {
      // A child never counts past its parent's end.
      event& parent = events[open.back()];
      parent.child_us +=
          std::min(e.start_us + e.dur_us, parent.start_us + parent.dur_us) -
          e.start_us;
    }
    open.push_back(i);
  }
  for (const event& e : events) {
    const double self_s = std::max(0.0, e.dur_us - e.child_us) * 1e-6;
    span_totals& t = by_name[e.name];
    ++t.count;
    t.total_s += e.dur_us * 1e-6;
    t.self_s += self_s;
    self_s_by_layer[e.layer] += self_s;
    traced_s += self_s;
    if (e.layer == "bench") unattributed_s += self_s;
  }
  return true;
}

trace_session::trace_session(std::string scratch, std::string keep)
    : scratch_(std::move(scratch)), keep_(std::move(keep)) {
  tel::reset_trace();
  tel::set_trace_enabled(true);
}

trace_session::~trace_session() {
  tel::set_trace_enabled(false);
  tel::reset_trace();
  std::error_code ignored;
  std::filesystem::remove(scratch_, ignored);
}

void trace_session::flush() {
  const std::size_t recorded = tel::trace_event_count();
  lost_ += tel::trace_dropped();
  if (recorded > 0) {
    if (!tel::write_chrome_trace(scratch_) ||
        !summary_.add_chrome_trace(scratch_)) {
      lost_ += recorded;
    } else if (!keep_.empty()) {
      std::error_code ignored;
      std::filesystem::copy_file(scratch_, keep_,
                                 std::filesystem::copy_options::overwrite_existing,
                                 ignored);
      keep_.clear();
    }
  }
  tel::reset_trace();
}

}  // namespace perfbench
