#include "util/cli.hpp"

#include <stdexcept>

namespace roadrunner::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string body = arg.substr(2);
      auto eq = body.find('=');
      if (eq != std::string::npos) {
        flags_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags_[body] = argv[++i];
      } else {
        flags_[body] = "";  // bare boolean flag
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.contains(name);
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  return std::stoll(it->second);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  return std::stod(it->second);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  if (it->second.empty() || it->second == "true" || it->second == "1") {
    return true;
  }
  if (it->second == "false" || it->second == "0") return false;
  throw std::invalid_argument{"CliArgs: bad boolean for --" + name};
}

std::size_t parse_positive_count(const CliArgs& args, const std::string& name,
                                 std::size_t fallback) {
  if (!args.has(name)) return fallback;
  const std::string value = args.get(name, "");
  long long parsed = 0;
  bool ok = !value.empty();
  if (ok) {
    try {
      std::size_t pos = 0;
      parsed = std::stoll(value, &pos);
      ok = pos == value.size();
    } catch (const std::exception&) {
      ok = false;
    }
  }
  if (!ok || parsed <= 0) {
    throw std::invalid_argument{"--" + name + "=" + value +
                                ": expected a positive integer"};
  }
  return static_cast<std::size_t>(parsed);
}

std::size_t parse_worker_count(const CliArgs& args, const std::string& name,
                               std::size_t fallback) {
  try {
    return parse_positive_count(args, name, fallback);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument{std::string{e.what()} +
                                " (omit the flag to auto-size to the "
                                "hardware)"};
  }
}

}  // namespace roadrunner::util
