#include "comm/channel.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

namespace roadrunner::comm {

std::string to_string(ChannelKind kind) {
  switch (kind) {
    case ChannelKind::kV2C: return "V2C";
    case ChannelKind::kV2X: return "V2X";
    case ChannelKind::kWired: return "wired";
  }
  return "?";
}

ChannelKind parse_channel(const std::string& text, const std::string& where) {
  if (text == "v2c" || text == "V2C") return ChannelKind::kV2C;
  if (text == "v2x" || text == "V2X") return ChannelKind::kV2X;
  if (text == "wired") return ChannelKind::kWired;
  throw std::runtime_error{where + ": unknown channel '" + text + "'"};
}

std::array<bool, kChannelKindCount> parse_channel_set(
    const std::string& text, const std::string& where) {
  std::array<bool, kChannelKindCount> set{};
  std::stringstream ss{text};
  std::string item;
  while (std::getline(ss, item, ',')) {
    std::size_t b = 0, e = item.size();
    while (b < e && std::isspace(static_cast<unsigned char>(item[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(item[e - 1]))) --e;
    if (b == e) continue;
    const ChannelKind kind = parse_channel(item.substr(b, e - b), where);
    set[static_cast<std::size_t>(kind)] = true;
  }
  return set;
}

ChannelConfig default_v2c() {
  return ChannelConfig{
      .bandwidth_bytes_per_s = 1.0e6,  // 1000 KB/s, the paper's lower bound
      .setup_latency_s = 0.5,
      .loss_probability = 0.01,
      .range_m = 0.0,
  };
}

ChannelConfig default_v2x() {
  return ChannelConfig{
      .bandwidth_bytes_per_s = 3.0e6,
      .setup_latency_s = 0.2,
      .loss_probability = 0.02,
      .range_m = 200.0,  // paper §5.2: urban average
  };
}

ChannelConfig default_wired() {
  return ChannelConfig{
      .bandwidth_bytes_per_s = 1.25e8,  // ~1 Gbit/s
      .setup_latency_s = 0.01,
      .loss_probability = 0.0,
      .range_m = 0.0,
  };
}

std::string to_string(LinkStatus status) {
  switch (status) {
    case LinkStatus::kOk: return "ok";
    case LinkStatus::kSenderOff: return "sender-off";
    case LinkStatus::kReceiverOff: return "receiver-off";
    case LinkStatus::kOutOfRange: return "out-of-range";
    case LinkStatus::kNoCoverage: return "no-coverage";
    case LinkStatus::kRandomLoss: return "random-loss";
    case LinkStatus::kBadEndpoints: return "bad-endpoints";
    case LinkStatus::kFaultOutage: return "fault-outage";
    case LinkStatus::kJamming: return "jamming";
  }
  return "?";
}

double transfer_duration(const ChannelConfig& config, std::uint64_t bytes) {
  if (config.bandwidth_bytes_per_s <= 0.0) {
    throw std::invalid_argument{"transfer_duration: bandwidth <= 0"};
  }
  return config.setup_latency_s +
         static_cast<double>(bytes) / config.bandwidth_bytes_per_s;
}

double transfer_duration(const ChannelConfig& config, std::uint64_t bytes,
                         double distance_m) {
  if (config.bandwidth_bytes_per_s <= 0.0) {
    throw std::invalid_argument{"transfer_duration: bandwidth <= 0"};
  }
  double factor = 1.0;
  if (config.range_degradation > 0.0 && config.range_m > 0.0) {
    factor = std::max(
        0.1, 1.0 - config.range_degradation * distance_m / config.range_m);
  }
  return config.setup_latency_s +
         static_cast<double>(bytes) /
             (config.bandwidth_bytes_per_s * factor);
}

}  // namespace roadrunner::comm
