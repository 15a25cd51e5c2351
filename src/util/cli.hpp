// Tiny command-line flag parser shared by benches and examples.
// Supports `--name=value`, `--name value`, and boolean `--name`.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace roadrunner::util {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// True if the flag appeared (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Name of the executable (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Parses a count flag that must be a positive integer when present
/// (`--seeds=N`). An absent flag returns `fallback`; 0, negatives and junk
/// (including trailing garbage like "1x") throw std::invalid_argument with
/// a usage-ready message naming the flag and value.
std::size_t parse_positive_count(const CliArgs& args, const std::string& name,
                                 std::size_t fallback);

/// Parses a worker/parallelism count flag. An absent flag returns
/// `fallback` (0 conventionally means "auto-size to the hardware"); a flag
/// that is present must be a positive integer — `--workers=0`, negatives,
/// and junk all throw std::invalid_argument with a usage-ready message
/// instead of silently auto-sizing (or, for a negative value cast through
/// size_t, trying to spawn 2^64 threads).
std::size_t parse_worker_count(const CliArgs& args, const std::string& name,
                               std::size_t fallback = 0);

}  // namespace roadrunner::util
