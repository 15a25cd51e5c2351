#include "util/ini.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace roadrunner::util {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

/// Removes an inline comment: '#' or ';' at line start or preceded by
/// whitespace or '=' begins a comment (values therefore cannot contain
/// " #", nor *start* with a comment character). The '=' case keeps parse
/// and to_string symmetric: "k=;x" must not smuggle in a value ";x" that
/// to_string would re-emit as "k = ;x" — where the ';' reads as a comment.
std::string strip_comment(const std::string& s) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if ((s[i] == '#' || s[i] == ';') &&
        (i == 0 || s[i - 1] == ' ' || s[i - 1] == '\t' || s[i - 1] == '=')) {
      return s.substr(0, i);
    }
  }
  return s;
}

}  // namespace

IniFile IniFile::parse(const std::string& text) {
  IniFile ini;
  std::istringstream in{text};
  std::string line;
  std::string section;
  bool in_section = false;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string t = trim(strip_comment(line));
    if (t.empty()) continue;
    if (t.front() == '[') {
      if (t.back() != ']' || t.size() < 3) {
        throw std::runtime_error{"IniFile: bad section header at line " +
                                 std::to_string(line_no)};
      }
      section = trim(t.substr(1, t.size() - 2));
      // "[ ]" would round-trip through to_string() as "[]", which this
      // very parser rejects — an empty name can never be written, so it
      // must not be readable either.
      if (section.empty()) {
        throw std::runtime_error{"IniFile: empty section name at line " +
                                 std::to_string(line_no)};
      }
      in_section = true;
      ini.data_[section];  // section may stay empty
      continue;
    }
    const auto eq = t.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error{"IniFile: expected key=value at line " +
                               std::to_string(line_no)};
    }
    // A key before any [section] header would land in a nameless section
    // no getter can address (and to_string() could not re-emit). Reject it
    // loudly — it is almost always a typo'd or forgotten header.
    if (!in_section) {
      throw std::runtime_error{"IniFile: key outside any [section] at line " +
                               std::to_string(line_no)};
    }
    const std::string key = trim(t.substr(0, eq));
    const std::string value = trim(t.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error{"IniFile: empty key at line " +
                               std::to_string(line_no)};
    }
    ini.data_[section][key] = value;
  }
  return ini;
}

IniFile IniFile::load(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"IniFile: cannot open " + path};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

bool IniFile::has(const std::string& section, const std::string& key) const {
  const auto s = data_.find(section);
  return s != data_.end() && s->second.contains(key);
}

std::string IniFile::get(const std::string& section, const std::string& key,
                         const std::string& fallback) const {
  const auto s = data_.find(section);
  if (s == data_.end()) return fallback;
  const auto k = s->second.find(key);
  return k == s->second.end() ? fallback : k->second;
}

std::int64_t IniFile::get_int(const std::string& section,
                              const std::string& key,
                              std::int64_t fallback) const {
  if (!has(section, key)) return fallback;
  const std::string v = get(section, key);
  try {
    std::size_t pos = 0;
    const std::int64_t parsed = std::stoll(v, &pos);
    if (pos != v.size()) throw std::invalid_argument{v};
    return parsed;
  } catch (const std::exception&) {
    throw std::runtime_error{"IniFile: bad integer '" + v + "' for " +
                             section + "." + key};
  }
}

std::uint64_t IniFile::get_uint64(const std::string& section,
                                  const std::string& key,
                                  std::uint64_t fallback) const {
  if (!has(section, key)) return fallback;
  const std::string v = get(section, key);
  try {
    std::size_t pos = 0;
    if (!v.empty() && v.front() == '-') throw std::invalid_argument{v};
    const std::uint64_t parsed = std::stoull(v, &pos);
    if (pos != v.size()) throw std::invalid_argument{v};
    return parsed;
  } catch (const std::exception&) {
    throw std::runtime_error{"IniFile: bad unsigned integer '" + v + "' for " +
                             section + "." + key};
  }
}

double IniFile::get_double(const std::string& section, const std::string& key,
                           double fallback) const {
  if (!has(section, key)) return fallback;
  const std::string v = get(section, key);
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument{v};
    return parsed;
  } catch (const std::exception&) {
    throw std::runtime_error{"IniFile: bad number '" + v + "' for " + section +
                             "." + key};
  }
}

bool IniFile::get_bool(const std::string& section, const std::string& key,
                       bool fallback) const {
  if (!has(section, key)) return fallback;
  const std::string v = get(section, key);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::runtime_error{"IniFile: bad boolean '" + v + "' for " + section +
                           "." + key};
}

std::size_t IniFile::get_size(const std::string& section,
                             const std::string& key,
                             std::size_t fallback) const {
  if (!has(section, key)) return fallback;
  const std::int64_t parsed = get_int(section, key, 0);
  if (parsed < 0) {
    throw std::runtime_error{"IniFile: negative count '" + get(section, key) +
                             "' for " + section + "." + key};
  }
  return static_cast<std::size_t>(parsed);
}

void IniFile::check_keys(
    const std::string& section,
    std::initializer_list<std::string_view> allowed) const {
  const auto s = data_.find(section);
  if (s == data_.end()) return;
  for (const auto& [key, value] : s->second) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      throw std::runtime_error{"[" + section + "]: unknown key '" + key +
                               "'"};
    }
  }
}

std::vector<std::string> IniFile::numbered(const std::string& prefix) const {
  const std::string head = prefix + ".";
  std::vector<std::string> found;
  for (auto s = data_.lower_bound(head);
       s != data_.end() && s->first.starts_with(head); ++s) {
    const std::string index = s->first.substr(head.size());
    if (index.empty() ||
        index.find_first_not_of("0123456789") != std::string::npos ||
        (index.size() > 1 && index.front() == '0')) {
      throw std::runtime_error{"[" + s->first + "]: bad section name (want " +
                               head + "N, N = 0, 1, ...)"};
    }
    found.push_back(s->first);
  }
  // The names are distinct decimal indices, so they are exactly
  // prefix.0 .. prefix.(count - 1) unless one of them is missing.
  std::vector<std::string> out;
  out.reserve(found.size());
  for (std::size_t n = 0; n < found.size(); ++n) {
    out.push_back(head + std::to_string(n));
  }
  for (const std::string& name : found) {
    if (std::find(out.begin(), out.end(), name) != out.end()) continue;
    const auto missing = std::find_if(
        out.begin(), out.end(),
        [this](const std::string& o) { return !data_.contains(o); });
    throw std::runtime_error{"[" + name + "]: breaks the contiguous " + head +
                             "0, " + head + "1, ... numbering ([" + *missing +
                             "] is missing)"};
  }
  return out;
}

std::vector<std::string> IniFile::sections() const {
  std::vector<std::string> out;
  out.reserve(data_.size());
  for (const auto& [name, keys] : data_) out.push_back(name);
  return out;
}

std::vector<std::string> IniFile::keys(const std::string& section) const {
  std::vector<std::string> out;
  const auto s = data_.find(section);
  if (s == data_.end()) return out;
  out.reserve(s->second.size());
  for (const auto& [key, value] : s->second) out.push_back(key);
  return out;
}

void IniFile::set(const std::string& section, const std::string& key,
                  const std::string& value) {
  data_[section][key] = value;
}

std::string IniFile::to_string() const {
  std::string out;
  for (const auto& [section, keys] : data_) {
    out += "[" + section + "]\n";
    for (const auto& [key, value] : keys) {
      out += key + " = " + value + "\n";
    }
  }
  return out;
}

std::pair<std::string, std::string> split_section_key(
    const std::string& dotted, const std::string& where) {
  const std::size_t dot = dotted.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 == dotted.size()) {
    throw std::runtime_error{where + " key '" + dotted +
                             "' must have the form section.key"};
  }
  return {dotted.substr(0, dot), dotted.substr(dot + 1)};
}

}  // namespace roadrunner::util
