#include "fault/fault_plan.hpp"

#include <algorithm>
#include <stdexcept>

#include "comm/network.hpp"

namespace roadrunner::fault {

namespace {

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

/// Interpolates a multiplicative factor from the identity: severity 0 means
/// "no effect", 1 means "as written". Clamped away from zero so a scaled
/// bandwidth never divides by zero.
double scale_factor(double factor, double s) {
  return std::max(1.0 + (factor - 1.0) * s, 0.01);
}

}  // namespace

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kChannelDegrade: return "channel_degrade";
    case FaultKind::kRegionOutage: return "region_outage";
    case FaultKind::kNodeOutage: return "node_outage";
    case FaultKind::kHuStraggler: return "hu_straggler";
    case FaultKind::kVehicleCrash: return "vehicle_crash";
    case FaultKind::kPayloadCorruption: return "payload_corruption";
  }
  return "?";
}

FaultPlan FaultPlan::resolved(const std::vector<mobility::NodeId>& rsu_nodes,
                              std::size_t vehicle_count) const {
  FaultPlan out = *this;
  for (FaultEvent& ev : out.events) {
    if (ev.kind == FaultKind::kNodeOutage) {
      switch (ev.target) {
        case OutageTarget::kCloud:
          ev.node = comm::kCloudEndpoint;
          break;
        case OutageTarget::kRsu:
          if (ev.node >= rsu_nodes.size()) {
            throw std::invalid_argument{
                "fault plan: node_outage targets rsu:" +
                std::to_string(ev.node) + " but the scenario has " +
                std::to_string(rsu_nodes.size()) + " RSUs"};
          }
          ev.node = rsu_nodes[ev.node];
          break;
        case OutageTarget::kNode:
          break;
      }
      // From here on `node` is concrete; resolving twice is a no-op.
      ev.target = OutageTarget::kNode;
    }
    if ((ev.kind == FaultKind::kHuStraggler ||
         ev.kind == FaultKind::kVehicleCrash) &&
        !ev.all_vehicles && ev.vehicle >= vehicle_count) {
      throw std::invalid_argument{
          "fault plan: " + to_string(ev.kind) + " targets vehicle " +
          std::to_string(ev.vehicle) + " but the scenario has " +
          std::to_string(vehicle_count) + " vehicles"};
    }
  }
  return out;
}

FaultPlan FaultPlan::scaled() const {
  FaultPlan out;
  out.severity = 1.0;
  const double s = severity;
  if (s <= 0.0) return out;
  out.events.reserve(events.size());
  for (FaultEvent ev : events) {
    switch (ev.kind) {
      case FaultKind::kChannelDegrade:
        ev.loss_add = clamp01(ev.loss_add * s);
        ev.bandwidth_factor = scale_factor(ev.bandwidth_factor, s);
        ev.latency_factor = scale_factor(ev.latency_factor, s);
        break;
      case FaultKind::kRegionOutage:
        ev.radius_m *= s;
        break;
      case FaultKind::kNodeOutage:
        // The outage's only magnitude is its duration.
        ev.end_s = ev.start_s + (ev.end_s - ev.start_s) * s;
        break;
      case FaultKind::kHuStraggler:
        ev.slowdown = std::max(1.0 + (ev.slowdown - 1.0) * s, 0.01);
        break;
      case FaultKind::kVehicleCrash:
        ev.reboot_after_s *= s;
        break;
      case FaultKind::kPayloadCorruption:
        ev.probability = clamp01(ev.probability * s);
        break;
    }
    out.events.push_back(ev);
  }
  return out;
}

FaultPlan plan_from_ini(const util::IniFile& ini) {
  FaultPlan plan;
  ini.check_keys("fault", {"severity"});
  plan.severity = ini.get_double("fault", "severity", plan.severity);

  // [fault.0], [fault.1], ... in numeric order: the plan is an ordered
  // timeline regardless of file layout.
  for (const std::string& section : ini.numbered("fault")) {
    const std::string kind = ini.get(section, "kind");
    FaultEvent ev;
    ev.start_s = ini.get_double(section, "start_s", 0.0);
    ev.end_s = ini.get_double(section, "end_s",
                              std::numeric_limits<double>::infinity());
    if (kind == "channel_degrade") {
      ini.check_keys(section, {"kind", "start_s", "end_s", "channel", "loss",
                               "bandwidth_factor", "latency_factor"});
      ev.kind = FaultKind::kChannelDegrade;
      ev.channel =
          comm::parse_channel(ini.get(section, "channel", "v2c"), section);
      ev.loss_add = ini.get_double(section, "loss", 0.0);
      ev.bandwidth_factor = ini.get_double(section, "bandwidth_factor", 1.0);
      ev.latency_factor = ini.get_double(section, "latency_factor", 1.0);
    } else if (kind == "region_outage") {
      ini.check_keys(section, {"kind", "start_s", "end_s", "x_m", "y_m",
                               "radius_m", "channels"});
      ev.kind = FaultKind::kRegionOutage;
      ev.center.x = ini.get_double(section, "x_m", 0.0);
      ev.center.y = ini.get_double(section, "y_m", 0.0);
      ev.radius_m = ini.get_double(section, "radius_m", 0.0);
      ev.channels = comm::parse_channel_set(
          ini.get(section, "channels", "v2c"), section);
    } else if (kind == "node_outage") {
      ini.check_keys(section, {"kind", "start_s", "end_s", "target"});
      ev.kind = FaultKind::kNodeOutage;
      const std::string target = ini.get(section, "target", "cloud");
      if (target == "cloud") {
        ev.target = OutageTarget::kCloud;
      } else if (target.rfind("rsu:", 0) == 0) {
        ev.target = OutageTarget::kRsu;
        try {
          ev.node = std::stoul(target.substr(4));
        } catch (const std::exception&) {
          throw std::runtime_error{section + ": bad RSU index in target '" +
                                   target + "'"};
        }
      } else {
        ev.target = OutageTarget::kNode;
        try {
          ev.node = std::stoul(target);
        } catch (const std::exception&) {
          throw std::runtime_error{section + ": unknown target '" + target +
                                   "' (want cloud, rsu:K, or a node id)"};
        }
      }
    } else if (kind == "hu_straggler") {
      ini.check_keys(section,
                     {"kind", "start_s", "end_s", "vehicle", "slowdown"});
      ev.kind = FaultKind::kHuStraggler;
      const std::string vehicle = ini.get(section, "vehicle", "all");
      ev.all_vehicles = vehicle == "all";
      if (!ev.all_vehicles) ev.vehicle = ini.get_size(section, "vehicle", 0);
      ev.slowdown = ini.get_double(section, "slowdown", 1.0);
      if (ev.slowdown <= 0.0) {
        throw std::runtime_error{section + ": slowdown must be > 0"};
      }
    } else if (kind == "vehicle_crash") {
      ini.check_keys(section, {"kind", "vehicle", "at_s", "reboot_after_s",
                               "lose_model", "lose_data"});
      ev.kind = FaultKind::kVehicleCrash;
      const std::string vehicle = ini.get(section, "vehicle", "0");
      if (vehicle == "all") {
        throw std::runtime_error{section +
                                 ": vehicle_crash needs a single vehicle"};
      }
      ev.vehicle = ini.get_size(section, "vehicle", 0);
      ev.at_s = ini.get_double(section, "at_s", 0.0);
      ev.reboot_after_s = ini.get_double(section, "reboot_after_s", 0.0);
      ev.lose_model = ini.get_bool(section, "lose_model", true);
      ev.lose_data = ini.get_bool(section, "lose_data", false);
      if (ev.reboot_after_s < 0.0) {
        throw std::runtime_error{section + ": negative reboot_after_s"};
      }
    } else if (kind == "payload_corruption") {
      ini.check_keys(section,
                     {"kind", "start_s", "end_s", "channel", "probability"});
      ev.kind = FaultKind::kPayloadCorruption;
      ev.channel =
          comm::parse_channel(ini.get(section, "channel", "v2c"), section);
      ev.probability = ini.get_double(section, "probability", 0.0);
      if (ev.probability < 0.0 || ev.probability > 1.0) {
        throw std::runtime_error{section + ": probability out of [0, 1]"};
      }
    } else {
      throw std::runtime_error{section + ": unknown fault kind '" + kind +
                               "'"};
    }
    if (ev.end_s < ev.start_s) {
      throw std::runtime_error{section + ": end_s before start_s"};
    }
    plan.events.push_back(std::move(ev));
  }
  return plan;
}

}  // namespace roadrunner::fault
