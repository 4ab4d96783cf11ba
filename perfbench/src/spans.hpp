// Per-layer span accounting for the traced run.
//
// Spans are recorded with support::telemetry (scoped_span, which calls
// trace_complete) from the benchmark's own files around each layer
// call; a span's category is its layer. The library's own spans
// (sampled engine and stone-age rounds, sweep trials) land in the same
// buffer. A trace_session turns tracing on, and flush() - called
// between units of work, when no span is open - writes the buffer as a
// Chrome trace, reads the X events back, folds them into a span_summary
// and empties the buffer, so memory stays bounded however long the run.
//
// Self time: per thread, events sorted by start form a stack; a span's
// parent is the innermost open span on the same thread when it starts,
// and its self time is its duration minus its children's. Spans in
// layer "bench" are the benchmark's own glue (the per-trial wrapper);
// their self time is the remainder the trace cannot assign to a layer.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct span_totals {
  std::uint64_t count = 0;
  double total_s = 0.0;  ///< Inclusive duration.
  double self_s = 0.0;   ///< Minus same-thread children.
};

struct span_summary {
  std::map<std::string, span_totals> by_name;
  std::map<std::string, double> self_s_by_layer;
  double traced_s = 0.0;        ///< Sum of all self times.
  double unattributed_s = 0.0;  ///< Self time of "bench" spans.

  [[nodiscard]] double total_s(const std::string& name) const;
  [[nodiscard]] double self_s(const std::string& name) const;
  [[nodiscard]] std::uint64_t count(const std::string& name) const;
  [[nodiscard]] double unattributed_frac() const {
    return traced_s > 0 ? unattributed_s / traced_s : 0.0;
  }

  /// Folds the X events of a Chrome trace written by
  /// telemetry::write_chrome_trace; false when it cannot be read.
  bool add_chrome_trace(const std::string& path);
};

/// Tracing on for the session's lifetime, into an emptied buffer.
class trace_session {
 public:
  /// `scratch` is the file each flush writes and reads back; the first
  /// flushed chunk is kept as a Chrome trace at `keep` ("" = none).
  trace_session(std::string scratch, std::string keep);
  ~trace_session();
  trace_session(const trace_session&) = delete;
  trace_session& operator=(const trace_session&) = delete;

  /// Folds the spans recorded so far into summary() and empties the
  /// buffer. Call only while no span is open on any thread.
  void flush();
  /// Every flushed span; call flush() first.
  [[nodiscard]] const span_summary& summary() const { return summary_; }
  /// Spans the telemetry buffer dropped (past its cap) or that could
  /// not be read back; should be 0.
  [[nodiscard]] std::uint64_t lost() const { return lost_; }

 private:
  std::string scratch_;
  std::string keep_;
  span_summary summary_;
  std::uint64_t lost_ = 0;
};

}  // namespace perfbench
