// Minimal INI-style configuration parser for experiment files:
//
//   # comment
//   [scenario]
//   vehicles = 100
//   dataset  = images
//   [strategy]
//   name     = opportunistic
//   rounds   = 75
//
// Sections group keys; keys are unique within a section (later wins).
// Used by the roadrunner_run tool so analysts can define experiments
// without recompiling (paper Req. 5: "flexible implementation and
// parametrization ... to allow for easy experimentation and iteration").
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace roadrunner::util {

class IniFile {
 public:
  IniFile() = default;

  /// Parses INI text. Throws std::runtime_error with a line number on
  /// malformed input (garbage lines, unterminated section headers).
  static IniFile parse(const std::string& text);

  /// Loads and parses a file. Throws std::runtime_error if unreadable.
  static IniFile load(const std::string& path);

  [[nodiscard]] bool has(const std::string& section,
                         const std::string& key) const;

  [[nodiscard]] std::string get(const std::string& section,
                                const std::string& key,
                                const std::string& fallback = "") const;
  /// Typed getters return `fallback` when the key is absent and throw
  /// std::runtime_error naming `section.key` when the value is present but
  /// malformed (including trailing garbage like "12abc").
  [[nodiscard]] std::int64_t get_int(const std::string& section,
                                     const std::string& key,
                                     std::int64_t fallback) const;
  /// Full-range unsigned parse (RNG seeds exceed int64's range).
  [[nodiscard]] std::uint64_t get_uint64(const std::string& section,
                                         const std::string& key,
                                         std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& section,
                                  const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& section,
                              const std::string& key, bool fallback) const;
  /// get_int for counts and sizes: also throws naming `section.key` on a
  /// negative value, which a cast to size_t would wrap.
  [[nodiscard]] std::size_t get_size(const std::string& section,
                                     const std::string& key,
                                     std::size_t fallback) const;

  /// Throws std::runtime_error "[section]: unknown key 'k'" for the first
  /// key of `section` not in `allowed`: a typo must fail, not silently fall
  /// back to a default. An absent section passes.
  void check_keys(const std::string& section,
                  std::initializer_list<std::string_view> allowed) const;

  /// The sections `prefix.0`, `prefix.1`, ... in numeric order, so a
  /// numbered timeline reads the same whatever the file layout. Throws
  /// std::runtime_error naming the section when a `prefix.*` section has a
  /// suffix that is not a plain decimal index, or when the indices leave a
  /// gap: a typo'd number must fail, not drop a section.
  [[nodiscard]] std::vector<std::string> numbered(
      const std::string& prefix) const;

  [[nodiscard]] std::vector<std::string> sections() const;
  [[nodiscard]] std::vector<std::string> keys(
      const std::string& section) const;

  void set(const std::string& section, const std::string& key,
           const std::string& value);

  /// Regenerates parseable INI text (sections and keys sorted). Round-trip
  /// stable: parse(f.to_string()) compares equal to f key-for-key, which is
  /// what lets checkpoints embed their own rebuild recipe.
  [[nodiscard]] std::string to_string() const;

 private:
  std::map<std::string, std::map<std::string, std::string>> data_;
};

/// Splits "section.key" at its first dot (sweep axes, fork overrides).
/// Throws std::runtime_error "<where> key '<dotted>' must have the form
/// section.key" when either side would be empty.
std::pair<std::string, std::string> split_section_key(
    const std::string& dotted, const std::string& where);

}  // namespace roadrunner::util
