#include "adversary/adversary_plan.hpp"

#include <algorithm>
#include <stdexcept>

namespace roadrunner::adversary {

namespace {

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

double parse_fraction(const util::IniFile& ini, const std::string& section) {
  const double f = ini.get_double(section, "fraction", 0.0);
  if (f < 0.0 || f > 1.0) {
    throw std::runtime_error{section + ": fraction out of [0, 1]"};
  }
  return f;
}

}  // namespace

std::string to_string(AdversaryKind kind) {
  switch (kind) {
    case AdversaryKind::kModelPoison: return "model_poison";
    case AdversaryKind::kByzantine: return "byzantine";
    case AdversaryKind::kJamming: return "jamming";
    case AdversaryKind::kSybil: return "sybil";
  }
  return "?";
}

AdversaryPlan AdversaryPlan::resolved(
    const std::vector<mobility::NodeId>& rsu_nodes,
    std::size_t vehicle_count) const {
  static_cast<void>(rsu_nodes);  // adversary events target vehicles only
  AdversaryPlan out = *this;
  out.vehicle_count = vehicle_count;
  for (const AdversaryEvent& ev : out.events) {
    if (ev.kind != AdversaryKind::kJamming && ev.fraction > 0.0 &&
        vehicle_count == 0) {
      throw std::invalid_argument{
          "adversary plan: " + to_string(ev.kind) +
          " compromises a vehicle fraction but the scenario has no vehicles"};
    }
  }
  return out;
}

AdversaryPlan AdversaryPlan::scaled() const {
  AdversaryPlan out;
  out.fraction = 1.0;
  out.vehicle_count = vehicle_count;
  const double f = fraction;
  if (f <= 0.0) return out;
  out.events.reserve(events.size());
  for (AdversaryEvent ev : events) {
    if (ev.kind == AdversaryKind::kJamming) {
      ev.radius_m *= f;
    } else {
      ev.fraction = clamp01(ev.fraction * f);
    }
    out.events.push_back(ev);
  }
  return out;
}

AdversaryPlan plan_from_ini(const util::IniFile& ini) {
  AdversaryPlan plan;
  ini.check_keys("adversary", {"fraction"});
  if (ini.has("adversary", "fraction")) {
    plan.fraction = ini.get_double("adversary", "fraction", plan.fraction);
    if (plan.fraction < 0.0) {
      throw std::runtime_error{"adversary: negative fraction"};
    }
  }

  // [adversary.0], [adversary.1], ... in numeric order: the plan is an
  // ordered timeline regardless of file layout.
  for (const std::string& section : ini.numbered("adversary")) {
    const std::string kind = ini.get(section, "kind");
    AdversaryEvent ev;
    ev.start_s = ini.get_double(section, "start_s", 0.0);
    ev.end_s = ini.get_double(section, "end_s",
                              std::numeric_limits<double>::infinity());
    if (kind == "model_poison") {
      ini.check_keys(section, {"kind", "start_s", "end_s", "fraction", "scale",
                               "label_flip"});
      ev.kind = AdversaryKind::kModelPoison;
      ev.fraction = parse_fraction(ini, section);
      ev.scale = ini.get_double(section, "scale", ev.scale);
      ev.label_flip = ini.get_bool(section, "label_flip", false);
    } else if (kind == "byzantine") {
      ini.check_keys(section, {"kind", "start_s", "end_s", "fraction",
                               "magnitude", "weight_factor"});
      ev.kind = AdversaryKind::kByzantine;
      ev.fraction = parse_fraction(ini, section);
      ev.magnitude = ini.get_double(section, "magnitude", ev.magnitude);
      ev.weight_factor =
          ini.get_double(section, "weight_factor", ev.weight_factor);
      if (ev.magnitude < 0.0) {
        throw std::runtime_error{section + ": negative magnitude"};
      }
      if (ev.weight_factor <= 0.0) {
        throw std::runtime_error{section + ": weight_factor must be > 0"};
      }
    } else if (kind == "jamming") {
      ini.check_keys(section, {"kind", "start_s", "end_s", "x_m", "y_m",
                               "radius_m", "channels"});
      ev.kind = AdversaryKind::kJamming;
      ev.center.x = ini.get_double(section, "x_m", 0.0);
      ev.center.y = ini.get_double(section, "y_m", 0.0);
      ev.radius_m = ini.get_double(section, "radius_m", 0.0);
      ev.channels = comm::parse_channel_set(
          ini.get(section, "channels", "v2x"), section);
      if (ev.radius_m < 0.0) {
        throw std::runtime_error{section + ": negative radius_m"};
      }
    } else if (kind == "sybil") {
      ini.check_keys(section,
                     {"kind", "start_s", "end_s", "fraction", "clones"});
      ev.kind = AdversaryKind::kSybil;
      ev.fraction = parse_fraction(ini, section);
      const std::int64_t clones = ini.get_int(section, "clones", 2);
      if (clones < 1) {
        throw std::runtime_error{section + ": clones must be >= 1"};
      }
      ev.clones = static_cast<std::size_t>(clones);
    } else {
      throw std::runtime_error{section + ": unknown adversary kind '" + kind +
                               "'"};
    }
    if (ev.end_s < ev.start_s) {
      throw std::runtime_error{section + ": end_s before start_s"};
    }
    plan.events.push_back(ev);
  }
  return plan;
}

}  // namespace roadrunner::adversary
