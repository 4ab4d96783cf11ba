#include "support/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "support/parallel.hpp"

namespace beepkit::support {

namespace {

[[noreturn]] void reject(const std::string& program, const std::string& name,
                         const std::string& value, const char* expected) {
  std::fprintf(stderr, "%s: invalid --%s '%s': expected %s\n",
               program.c_str(), name.c_str(), value.c_str(), expected);
  std::exit(2);
}

}  // namespace

cli::cli(int argc, const char* const* argv,
         std::initializer_list<const char*> switches)
    : program_(argc > 0 ? std::filesystem::path(argv[0]).filename().string()
                        : "beepkit") {
  const auto is_switch = [&switches](const std::string& name) {
    for (const char* s : switches) {
      if (name == s) return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (!is_switch(arg) && i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[i + 1];
      ++i;
    } else {
      values_[arg] = "true";
    }
  }
}

bool cli::has(const std::string& name) const {
  queried_[name] = true;
  return values_.count(name) > 0;
}

std::optional<std::string> cli::get(const std::string& name) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  return get(name).value_or(fallback);
}

std::int64_t cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  const auto parsed = parse_int(*value);
  if (!parsed) reject(program_, name, *value, "an integer");
  return *parsed;
}

double cli::get_double(const std::string& name, double fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  const auto parsed = parse_double(*value);
  if (!parsed) reject(program_, name, *value, "a finite number");
  return *parsed;
}

std::optional<std::int64_t> cli::parse_int(std::string_view text) {
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> cli::parse_double(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

bool cli::get_bool(const std::string& name, bool fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  return *value == "true" || *value == "1" || *value == "yes";
}

std::size_t cli::get_threads(std::int64_t fallback) const {
  return resolve_threads(get_int("threads", fallback));
}

std::optional<shard_spec> cli::parse_shard(const std::string& text) {
  const auto slash = text.find('/');
  if (slash == std::string::npos || text.front() == '-') return std::nullopt;
  const std::string_view view(text);
  const auto index = parse_int(view.substr(0, slash));
  const auto count = parse_int(view.substr(slash + 1));
  // With no sign on the index, index < count also gives count >= 1.
  if (!index || !count || *index >= *count) return std::nullopt;
  return shard_spec{static_cast<std::uint64_t>(*index),
                    static_cast<std::uint64_t>(*count)};
}

shard_spec cli::get_shard() const {
  const auto value = get("shard");
  if (!value) return shard_spec{};
  const auto parsed = parse_shard(*value);
  if (!parsed) {
    reject(program_, "shard", *value, "i/N with N >= 1 and 0 <= i < N");
  }
  return *parsed;
}

std::vector<std::string> cli::unused() const {
  std::vector<std::string> leftover;
  for (const auto& [name, _] : values_) {
    if (!queried_.count(name)) leftover.push_back(name);
  }
  return leftover;
}

void cli::reject_unused() const {
  const auto leftover = unused();
  if (leftover.empty()) return;
  std::string names;
  for (const std::string& name : leftover) names += " --" + name;
  std::fprintf(stderr, "%s: unknown flag%s:%s\n", program_.c_str(),
               leftover.size() == 1 ? "" : "s", names.c_str());
  std::exit(2);
}

}  // namespace beepkit::support
