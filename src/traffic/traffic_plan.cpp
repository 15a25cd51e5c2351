#include "traffic/traffic_plan.hpp"

#include <stdexcept>

namespace roadrunner::traffic {

namespace {

Regime parse_regime(const std::string& text) {
  if (text == "auto") return Regime::kAuto;
  if (text == "free_flow") return Regime::kFreeFlow;
  if (text == "signalized") return Regime::kSignalized;
  if (text == "platooned") return Regime::kPlatooned;
  throw std::runtime_error{
      "[traffic]: unknown regime '" + text +
      "' (want auto, free_flow, signalized, or platooned)"};
}

ControllerKind parse_controller(const std::string& text,
                                const std::string& where) {
  if (text == "fixed") return ControllerKind::kFixedTime;
  if (text == "actuated") return ControllerKind::kActuated;
  throw std::runtime_error{where + ": unknown controller '" + text +
                           "' (want fixed or actuated)"};
}

double require_positive(double v, const std::string& where, const char* key) {
  if (!(v > 0.0)) {
    throw std::runtime_error{where + ": " + key + " must be > 0"};
  }
  return v;
}

double require_probability(double v, const std::string& where,
                           const char* key) {
  if (v < 0.0 || v > 1.0) {
    throw std::runtime_error{where + ": " + key + " out of [0, 1]"};
  }
  return v;
}

}  // namespace

TrafficPlan plan_from_ini(const util::IniFile& ini) {
  TrafficPlan plan;
  ini.check_keys("traffic", {"regime", "headway_s", "startup_s", "spacing_m"});
  plan.regime = parse_regime(ini.get("traffic", "regime", "auto"));
  plan.headway_s = require_positive(
      ini.get_double("traffic", "headway_s", plan.headway_s), "[traffic]",
      "headway_s");
  plan.startup_s = ini.get_double("traffic", "startup_s", plan.startup_s);
  if (plan.startup_s < 0.0) {
    throw std::runtime_error{"[traffic]: startup_s must be >= 0"};
  }
  plan.spacing_m = require_positive(
      ini.get_double("traffic", "spacing_m", plan.spacing_m), "[traffic]",
      "spacing_m");

  // [traffic.0], [traffic.1], ... in numeric order: signal indices are
  // stable regardless of file layout.
  for (const std::string& section : ini.numbered("traffic")) {
    ini.check_keys(section, {"gx", "gy", "controller", "green_ns_s",
                             "green_ew_s", "offset_s", "min_green_s",
                             "max_green_s", "extend_s"});
    SignalSpec sig;
    if (!ini.has(section, "gx") || !ini.has(section, "gy")) {
      throw std::runtime_error{section + ": needs both gx and gy"};
    }
    sig.gx = static_cast<int>(ini.get_int(section, "gx", 0));
    sig.gy = static_cast<int>(ini.get_int(section, "gy", 0));
    if (sig.gx < 0 || sig.gy < 0) {
      throw std::runtime_error{section + ": gx/gy must be >= 0"};
    }
    sig.controller =
        parse_controller(ini.get(section, "controller", "fixed"), section);
    sig.green_ns_s = require_positive(
        ini.get_double(section, "green_ns_s", sig.green_ns_s), section,
        "green_ns_s");
    sig.green_ew_s = require_positive(
        ini.get_double(section, "green_ew_s", sig.green_ew_s), section,
        "green_ew_s");
    sig.offset_s = ini.get_double(section, "offset_s", 0.0);
    if (sig.offset_s < 0.0) {
      throw std::runtime_error{section + ": offset_s must be >= 0"};
    }
    sig.min_green_s = require_positive(
        ini.get_double(section, "min_green_s", sig.min_green_s), section,
        "min_green_s");
    sig.max_green_s = require_positive(
        ini.get_double(section, "max_green_s", sig.max_green_s), section,
        "max_green_s");
    if (sig.max_green_s < sig.min_green_s) {
      throw std::runtime_error{section + ": max_green_s < min_green_s"};
    }
    sig.extend_s = require_positive(
        ini.get_double(section, "extend_s", sig.extend_s), section,
        "extend_s");
    for (const SignalSpec& other : plan.signals) {
      if (other.gx == sig.gx && other.gy == sig.gy) {
        throw std::runtime_error{section + ": duplicate intersection (" +
                                 std::to_string(sig.gx) + ", " +
                                 std::to_string(sig.gy) + ")"};
      }
    }
    plan.signals.push_back(sig);
  }

  if (!ini.keys("platoon").empty()) {
    ini.check_keys("platoon", {"count", "size", "headway_s",
                               "join_probability", "leave_probability",
                               "split_probability"});
    PlatoonSpec& p = plan.platoons;
    p.count = ini.get_size("platoon", "count", 0);
    const std::int64_t size =
        ini.get_int("platoon", "size", static_cast<std::int64_t>(p.size));
    if (p.count > 0 && size < 2) {
      throw std::runtime_error{"[platoon]: size must be >= 2"};
    }
    p.size = static_cast<std::size_t>(size);
    p.headway_s = require_positive(
        ini.get_double("platoon", "headway_s", p.headway_s), "[platoon]",
        "headway_s");
    p.join_probability = require_probability(
        ini.get_double("platoon", "join_probability", 0.0), "[platoon]",
        "join_probability");
    p.leave_probability = require_probability(
        ini.get_double("platoon", "leave_probability", 0.0), "[platoon]",
        "leave_probability");
    p.split_probability = require_probability(
        ini.get_double("platoon", "split_probability", 0.0), "[platoon]",
        "split_probability");
  }
  return plan;
}

}  // namespace roadrunner::traffic
