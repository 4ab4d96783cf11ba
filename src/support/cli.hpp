// Minimal command-line flag parsing for the bench harnesses and
// examples: `--name=value` or `--name value` pairs plus boolean
// switches. Deliberately tiny - no positional arguments, no
// subcommands - because every binary in this repository only needs a
// handful of numeric knobs (sizes, seeds, trial counts, --csv paths).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace beepkit::support {

/// A (start, stride) slice of a sweep: shard `index` of `count` owns
/// exactly the work units whose global index is congruent to `index`
/// modulo `count`. The default is the whole sweep (shard 0 of 1).
struct shard_spec {
  std::uint64_t index = 0;
  std::uint64_t count = 1;

  [[nodiscard]] bool owns(std::uint64_t global_index) const noexcept {
    return global_index % count == index;
  }
  [[nodiscard]] bool whole() const noexcept { return count == 1; }
};

/// Parsed flags. Numeric getters reject malformed values, and a binary
/// calls reject_unused() once it has read its flags, so a misspelt or
/// unknown flag stops the launch instead of silently running defaults.
class cli {
 public:
  /// `switches` names boolean flags that never consume a following
  /// argument as their value, so `prog --quiet file.jsonl` keeps
  /// file.jsonl as a positional. (`--flag=value` still works for
  /// switches.) Value flags keep the usual `--name value` form.
  cli(int argc, const char* const* argv,
      std::initializer_list<const char*> switches = {});

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  /// Numeric flags: a value that parse_int / parse_double rejects
  /// terminates the process with a message on stderr (exit status 2).
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;

  /// Strict parsers behind get_int / get_double: the whole text must be
  /// one decimal number in std::from_chars syntax (no whitespace, no
  /// leading '+'), in range; parse_double also refuses inf and nan.
  [[nodiscard]] static std::optional<std::int64_t> parse_int(
      std::string_view text);
  [[nodiscard]] static std::optional<double> parse_double(
      std::string_view text);
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Worker count for the parallel trial runner: `--threads N`, where
  /// N = 0 (and the flag's absence, with the default fallback of 0)
  /// means one worker per hardware thread. Always returns >= 1.
  [[nodiscard]] std::size_t get_threads(std::int64_t fallback = 0) const;

  /// Strict `i/N` shard parser: both parts must be plain decimal with
  /// nothing else, N >= 1 and i < N. Anything else yields nullopt.
  [[nodiscard]] static std::optional<shard_spec> parse_shard(
      const std::string& text);

  /// `--shard i/N` for the sweep runners; absence means the whole
  /// sweep. A malformed or out-of-range value terminates the process
  /// with a message on stderr - a sweep silently running the wrong
  /// slice would be worse than an aborted launch script.
  [[nodiscard]] shard_spec get_shard() const;

  /// Arguments that are neither `--flags` nor a flag's value, in
  /// command-line order (e.g. the input files of sweep_merge). A
  /// positional directly after a value-less flag NOT listed in
  /// `switches` is consumed as that flag's value - declare boolean
  /// flags as switches (or pass `--flag=value`) to avoid that.
  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  /// Flags that were present but never queried with one of the getters;
  /// useful for catching typos in sweep scripts.
  [[nodiscard]] std::vector<std::string> unused() const;

  /// Terminates the process (exit status 2) naming every unused() flag.
  /// Call it after the binary has queried all the flags it knows.
  void reject_unused() const;

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace beepkit::support
