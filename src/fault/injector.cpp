#include "fault/injector.hpp"

#include <stdexcept>

#include "comm/network.hpp"

namespace roadrunner::fault {

namespace {

/// Channels a node outage silences, used to arm recovery probes: the cloud
/// fronts V2C and the wired backhaul; any other node (RSU or vehicle) talks
/// over V2X, and RSUs additionally over wired.
std::vector<comm::ChannelKind> outage_channels(mobility::NodeId node) {
  if (node == comm::kCloudEndpoint) {
    return {comm::ChannelKind::kV2C, comm::ChannelKind::kWired};
  }
  return {comm::ChannelKind::kV2X, comm::ChannelKind::kWired};
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, util::Rng rng)
    : plan_{std::move(plan)}, rng_{rng} {
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& ev = plan_.events[i];
    if (ev.kind == FaultKind::kVehicleCrash) crash_indices_.push_back(i);

    // Arm a time-to-recover probe per finite outage window and affected
    // channel. Probe order is plan order, so the flag vector serializes
    // stably.
    if (ev.end_s == std::numeric_limits<double>::infinity() ||
        ev.end_s <= ev.start_s) {
      continue;
    }
    switch (ev.kind) {
      case FaultKind::kChannelDegrade:
        probes_.push_back({ev.end_s, ev.channel, false});
        break;
      case FaultKind::kRegionOutage:
        for (std::size_t k = 0; k < comm::kChannelKindCount; ++k) {
          if (ev.channels[k]) {
            probes_.push_back(
                {ev.end_s, static_cast<comm::ChannelKind>(k), false});
          }
        }
        break;
      case FaultKind::kNodeOutage:
        for (comm::ChannelKind kind : outage_channels(ev.node)) {
          probes_.push_back({ev.end_s, kind, false});
        }
        break;
      default:
        break;
    }
  }
}

bool FaultInjector::node_down(mobility::NodeId node, double time_s) const {
  for (const FaultEvent& ev : plan_.events) {
    if (ev.kind == FaultKind::kNodeOutage && ev.node == node &&
        ev.active_at(time_s)) {
      return true;
    }
    if (ev.kind == FaultKind::kVehicleCrash && ev.vehicle == node &&
        ev.reboot_after_s > 0.0 && time_s >= ev.at_s &&
        time_s < ev.at_s + ev.reboot_after_s) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::region_blocked(comm::ChannelKind kind,
                                   const mobility::Position& p,
                                   double time_s) const {
  for (const FaultEvent& ev : plan_.events) {
    if (ev.kind != FaultKind::kRegionOutage || !ev.active_at(time_s)) {
      continue;
    }
    if (!ev.channels[static_cast<std::size_t>(kind)]) continue;
    if (mobility::distance(p, ev.center) <= ev.radius_m) return true;
  }
  return false;
}

comm::ChannelMods FaultInjector::channel_mods(comm::ChannelKind kind,
                                              double time_s) const {
  comm::ChannelMods mods;
  for (const FaultEvent& ev : plan_.events) {
    if (ev.kind != FaultKind::kChannelDegrade || ev.channel != kind ||
        !ev.active_at(time_s)) {
      continue;
    }
    mods.loss_add += ev.loss_add;
    mods.bandwidth_factor *= ev.bandwidth_factor;
    mods.latency_factor *= ev.latency_factor;
  }
  return mods;
}

double FaultInjector::hu_slowdown(mobility::NodeId vehicle_node,
                                  double time_s) const {
  double factor = 1.0;
  for (const FaultEvent& ev : plan_.events) {
    if (ev.kind != FaultKind::kHuStraggler || !ev.active_at(time_s)) {
      continue;
    }
    if (ev.all_vehicles || ev.vehicle == vehicle_node) {
      factor *= ev.slowdown;
    }
  }
  return factor;
}

bool FaultInjector::crashed_between(mobility::NodeId vehicle_node,
                                    double t_begin, double t_end) const {
  for (std::size_t i : crash_indices_) {
    const FaultEvent& ev = plan_.events[i];
    if (ev.vehicle == vehicle_node && ev.at_s > t_begin &&
        ev.at_s <= t_end) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::roll_corruption(comm::ChannelKind kind, double time_s) {
  // Combined survival probability over all active corruption windows; one
  // RNG draw per affected delivery keeps the stream length deterministic.
  double survive = 1.0;
  bool any = false;
  for (const FaultEvent& ev : plan_.events) {
    if (ev.kind != FaultKind::kPayloadCorruption || ev.channel != kind ||
        !ev.active_at(time_s)) {
      continue;
    }
    any = true;
    survive *= 1.0 - ev.probability;
  }
  if (!any) return false;
  return rng_.bernoulli(1.0 - survive);
}

std::vector<double> FaultInjector::note_delivery(comm::ChannelKind kind,
                                                 double time_s) {
  std::vector<double> recoveries;
  for (RecoveryProbe& probe : probes_) {
    if (probe.recovered || probe.channel != kind || time_s < probe.end_s) {
      continue;
    }
    probe.recovered = true;
    recoveries.push_back(time_s - probe.end_s);
  }
  return recoveries;
}

void FaultInjector::save_state(util::BinWriter& out) const {
  util::save_fields(out, *this);
}

void FaultInjector::load_state(util::BinReader& in) {
  util::load_fields(in, *this, "fault");
}

}  // namespace roadrunner::fault
