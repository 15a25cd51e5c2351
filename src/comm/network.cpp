#include "comm/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace roadrunner::comm {

Network::Network(const mobility::FleetModel& fleet, Config config,
                 util::Rng rng)
    : fleet_{&fleet}, config_{std::move(config)}, rng_{rng} {}

const ChannelConfig& Network::channel(ChannelKind kind) const {
  switch (kind) {
    case ChannelKind::kV2C: return config_.v2c;
    case ChannelKind::kV2X: return config_.v2x;
    case ChannelKind::kWired: return config_.wired;
  }
  throw std::invalid_argument{"Network::channel: bad kind"};
}

LinkCheck Network::viability(mobility::NodeId from, mobility::NodeId to,
                             ChannelKind kind, double time_s) const {
  const bool from_cloud = from == kCloudEndpoint;
  const bool to_cloud = to == kCloudEndpoint;

  auto endpoint_on = [&](mobility::NodeId id, bool is_cloud) {
    return is_cloud || fleet_->is_on(id, time_s);
  };
  // An injected outage takes a node down regardless of its ignition state;
  // the cloud participates under its virtual endpoint id.
  auto fault_down = [&](mobility::NodeId id) {
    return fault_ != nullptr && fault_->node_down(id, time_s);
  };
  auto region_blocked = [&](const mobility::Position& p) {
    return fault_ != nullptr && fault_->region_blocked(kind, p, time_s);
  };
  auto jammed = [&](const mobility::Position& p) {
    return fault_ != nullptr && fault_->jamming_blocked(kind, p, time_s);
  };

  switch (kind) {
    case ChannelKind::kV2C: {
      // Exactly one endpoint is the cloud; the other is a fleet node.
      if (from_cloud == to_cloud) return {LinkStatus::kBadEndpoints};
      const mobility::NodeId node = from_cloud ? to : from;
      if (node >= fleet_->node_count()) return {LinkStatus::kBadEndpoints};
      if (!endpoint_on(from, from_cloud)) return {LinkStatus::kSenderOff};
      if (!endpoint_on(to, to_cloud)) return {LinkStatus::kReceiverOff};
      if (fault_down(kCloudEndpoint) || fault_down(node)) {
        return {LinkStatus::kFaultOutage};
      }
      const mobility::Position pos = fleet_->position_of(node, time_s);
      if (!config_.coverage.has_coverage(pos)) {
        return {LinkStatus::kNoCoverage};
      }
      if (region_blocked(pos)) return {LinkStatus::kFaultOutage};
      if (jammed(pos)) return {LinkStatus::kJamming};
      return {LinkStatus::kOk};
    }
    case ChannelKind::kV2X: {
      if (from_cloud || to_cloud) return {LinkStatus::kBadEndpoints};
      if (from >= fleet_->node_count() || to >= fleet_->node_count() ||
          from == to) {
        return {LinkStatus::kBadEndpoints};
      }
      if (!fleet_->is_on(from, time_s)) return {LinkStatus::kSenderOff};
      if (!fleet_->is_on(to, time_s)) return {LinkStatus::kReceiverOff};
      if (fault_down(from) || fault_down(to)) {
        return {LinkStatus::kFaultOutage};
      }
      const mobility::Position pa = fleet_->position_of(from, time_s);
      const mobility::Position pb = fleet_->position_of(to, time_s);
      const double d = mobility::distance(pa, pb);
      if (config_.v2x.range_m > 0.0 && d > config_.v2x.range_m) {
        return {LinkStatus::kOutOfRange};
      }
      if (region_blocked(pa) || region_blocked(pb)) {
        return {LinkStatus::kFaultOutage};
      }
      if (jammed(pa) || jammed(pb)) return {LinkStatus::kJamming};
      return {LinkStatus::kOk};
    }
    case ChannelKind::kWired: {
      // RSU <-> cloud. RSUs are static fleet nodes.
      if (from_cloud == to_cloud) return {LinkStatus::kBadEndpoints};
      const mobility::NodeId node = from_cloud ? to : from;
      if (node >= fleet_->node_count() || fleet_->is_vehicle(node)) {
        return {LinkStatus::kBadEndpoints};
      }
      if (fault_down(kCloudEndpoint) || fault_down(node)) {
        return {LinkStatus::kFaultOutage};
      }
      return {LinkStatus::kOk};
    }
  }
  return {LinkStatus::kBadEndpoints};
}

LinkCheck Network::check_link(mobility::NodeId from, mobility::NodeId to,
                              ChannelKind kind, double time_s) const {
  return viability(from, to, kind, time_s);
}

LinkCheck Network::roll_delivery(mobility::NodeId from, mobility::NodeId to,
                                 ChannelKind kind, double time_s) {
  const LinkCheck check = viability(from, to, kind, time_s);
  if (!check.ok()) return check;
  double p = channel(kind).loss_probability;
  if (fault_ != nullptr) {
    p += fault_->channel_mods(kind, time_s).loss_add;
    p = std::min(p, 1.0);
  }
  if (p > 0.0 && rng_.bernoulli(p)) return {LinkStatus::kRandomLoss};
  return {LinkStatus::kOk};
}

double Network::duration(ChannelKind kind, std::uint64_t bytes) const {
  return transfer_duration(channel(kind), bytes);
}

double Network::duration_between(mobility::NodeId from, mobility::NodeId to,
                                 ChannelKind kind, std::uint64_t bytes,
                                 double time_s) const {
  ChannelConfig cfg = channel(kind);
  if (fault_ != nullptr) {
    // Injected congestion: slower serialization and longer setup for the
    // whole transfer, priced at its start time.
    const ChannelMods mods = fault_->channel_mods(kind, time_s);
    cfg.bandwidth_bytes_per_s *= mods.bandwidth_factor;
    cfg.setup_latency_s *= mods.latency_factor;
  }
  if (cfg.range_degradation <= 0.0 || cfg.range_m <= 0.0 ||
      from == kCloudEndpoint || to == kCloudEndpoint) {
    return transfer_duration(cfg, bytes);
  }
  const double d = mobility::distance(fleet_->position_of(from, time_s),
                                      fleet_->position_of(to, time_s));
  return transfer_duration(cfg, bytes, d);
}

void Network::record_attempt(ChannelKind kind, std::uint64_t bytes) {
  auto& s = stats_[static_cast<std::size_t>(kind)];
  ++s.transfers_attempted;
  s.bytes_attempted += bytes;
}

void Network::record_delivery(ChannelKind kind, std::uint64_t bytes) {
  auto& s = stats_[static_cast<std::size_t>(kind)];
  ++s.transfers_delivered;
  s.bytes_delivered += bytes;
}

void Network::record_failure(ChannelKind kind, LinkStatus cause) {
  auto& s = stats_[static_cast<std::size_t>(kind)];
  ++s.transfers_failed;
  ++s.failed_by_cause[static_cast<std::size_t>(cause)];
}

const ChannelStats& Network::stats(ChannelKind kind) const {
  return stats_[static_cast<std::size_t>(kind)];
}


}  // namespace roadrunner::comm
