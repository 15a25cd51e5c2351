#include "workload/drift_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace roadrunner::workload {

namespace {

std::int32_t parse_component(const util::IniFile& ini,
                             const std::string& section) {
  const std::string text = ini.get(section, "component", "all");
  if (text == "all") return kAllComponents;
  try {
    const int value = std::stoi(text);
    if (value < 0) throw std::out_of_range{"negative"};
    return value;
  } catch (const std::exception&) {
    throw std::runtime_error{section + ": bad component '" + text +
                             "' (want a component index or \"all\")"};
  }
}

}  // namespace

double DriftEvent::front_radius_at(double time_s) const {
  if (time_s < start_s) return 0.0;
  if (time_s >= end_s || end_s <= start_s) return reach_m;
  return reach_m * (time_s - start_s) / (end_s - start_s);
}

DriftPlan DriftPlan::scaled() const {
  DriftPlan out;
  out.severity = 1.0;
  if (severity <= 0.0) return out;
  out.events.reserve(events.size());
  for (DriftEvent ev : events) {
    ev.magnitude *= severity;
    out.events.push_back(ev);
  }
  return out;
}

std::vector<double> DriftPlan::shift_times(double horizon_s) const {
  std::vector<double> times;
  for (const DriftEvent& ev : events) {
    double t = 0.0;
    switch (ev.kind) {
      case DriftKind::kAbrupt:
        t = ev.at_s;
        break;
      case DriftKind::kGradualFront:
        t = ev.end_s;
        break;
      case DriftKind::kPeriodic:
        continue;  // continuous modulation: no discrete shift to recover from
    }
    if (t > 0.0 && t < horizon_s) times.push_back(t);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

DriftPlan plan_from_ini(const util::IniFile& ini) {
  DriftPlan plan;
  ini.check_keys("drift", {"severity"});
  plan.severity = ini.get_double("drift", "severity", plan.severity);

  // [drift.0], [drift.1], ... in numeric order: the plan is an ordered
  // timeline regardless of file layout.
  for (const std::string& section : ini.numbered("drift")) {
    const std::string kind = ini.get(section, "kind");
    DriftEvent ev;
    ev.magnitude = ini.get_double(section, "magnitude", ev.magnitude);
    ev.component = parse_component(ini, section);
    if (kind == "abrupt") {
      ini.check_keys(section, {"kind", "at_s", "magnitude", "component"});
      ev.kind = DriftKind::kAbrupt;
      ev.at_s = ini.get_double(section, "at_s", 0.0);
      if (ev.at_s < 0.0) {
        throw std::runtime_error{section + ": negative at_s"};
      }
    } else if (kind == "gradual_front") {
      ini.check_keys(section, {"kind", "start_s", "end_s", "x_m", "y_m",
                               "reach_m", "magnitude", "component"});
      ev.kind = DriftKind::kGradualFront;
      ev.start_s = ini.get_double(section, "start_s", 0.0);
      ev.end_s = ini.get_double(section, "end_s", ev.end_s);
      ev.x_m = ini.get_double(section, "x_m", 0.0);
      ev.y_m = ini.get_double(section, "y_m", 0.0);
      ev.reach_m = ini.get_double(section, "reach_m", 0.0);
      if (ev.reach_m <= 0.0) {
        throw std::runtime_error{section + ": reach_m must be > 0"};
      }
      if (!std::isfinite(ev.end_s)) {
        throw std::runtime_error{section +
                                 ": gradual_front needs a finite end_s"};
      }
    } else if (kind == "periodic") {
      ini.check_keys(section, {"kind", "start_s", "end_s", "period_s",
                               "magnitude", "component"});
      ev.kind = DriftKind::kPeriodic;
      ev.start_s = ini.get_double(section, "start_s", 0.0);
      ev.end_s = ini.get_double(section, "end_s", ev.end_s);
      ev.period_s = ini.get_double(section, "period_s", 0.0);
      if (ev.period_s <= 0.0) {
        throw std::runtime_error{section + ": period_s must be > 0"};
      }
    } else {
      throw std::runtime_error{section + ": unknown drift kind '" + kind +
                               "'"};
    }
    if (ev.end_s < ev.start_s) {
      throw std::runtime_error{section + ": end_s before start_s"};
    }
    plan.events.push_back(ev);
  }
  return plan;
}

}  // namespace roadrunner::workload
