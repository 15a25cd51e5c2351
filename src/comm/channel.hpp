// Communication channels (paper §3): long-range cellular V2C, short-range
// V2X, and the wired RSU-to-cloud backhaul shown in Fig. 1. A channel model
// turns payload bytes into a transmission duration and defines when a link
// between two endpoints is viable.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace roadrunner::comm {

enum class ChannelKind : std::uint8_t {
  kV2C = 0,    ///< vehicle <-> cloud via metered cellular (4G/LTE, 5G)
  kV2X = 1,    ///< vehicle <-> vehicle / RSU, short range (802.11p, C-V2X)
  kWired = 2,  ///< RSU <-> cloud backhaul
};

std::string to_string(ChannelKind kind);
constexpr std::size_t kChannelKindCount = 3;

/// A channel as INI files name it: v2c/V2C, v2x/V2X or wired. Throws
/// std::runtime_error "<where>: unknown channel '<text>'" otherwise.
ChannelKind parse_channel(const std::string& text, const std::string& where);

/// A comma-separated channel list ("v2c, v2x") as one flag per kind; empty
/// items are skipped.
std::array<bool, kChannelKindCount> parse_channel_set(
    const std::string& text, const std::string& where);

struct ChannelConfig {
  double bandwidth_bytes_per_s = 1.0e6;
  double setup_latency_s = 0.1;    ///< per-transfer fixed cost
  double loss_probability = 0.0;   ///< random loss evaluated at delivery
  double range_m = 0.0;            ///< 0 = unlimited (V2C, wired)
  /// Linear bandwidth fall-off with distance (for range-limited channels):
  /// effective bandwidth at distance d is
  ///   bandwidth * max(0.1, 1 - range_degradation * d / range_m).
  /// 0 disables the effect. Models the §3b observation that V2X throughput
  /// degrades toward the edge of the radio range (obstacles, SNR).
  double range_degradation = 0.0;
  /// Maximum transfers one agent can *originate* concurrently on this
  /// channel (a radio serializes its uplink). Further sends queue at the
  /// sender and start as slots free, with the link revalidated at start.
  /// 0 (default) = unlimited.
  std::size_t max_concurrent_per_agent = 0;
};

/// Paper §3a: V2C "can range from 1000 to more than 10000 KB/s in ideal
/// conditions"; defaults model a conservative urban LTE link.
ChannelConfig default_v2c();

/// Paper §3b: V2X line-of-sight "can exceed 1000 m, although this range is
/// reduced in the presence of obstacles"; the experiment (§5.2) uses 200 m
/// "as an average for urban driving", which is our default.
ChannelConfig default_v2x();

/// RSU backhaul: fast and reliable.
ChannelConfig default_wired();

/// Why a link check or delivery failed. kOk means viable/delivered.
enum class LinkStatus : std::uint8_t {
  kOk = 0,
  kSenderOff,      ///< sender powered down (Req. 1 / §5.1)
  kReceiverOff,    ///< receiver powered down
  kOutOfRange,     ///< V2X endpoints too far apart
  kNoCoverage,     ///< V2C endpoint in a cellular dead zone
  kRandomLoss,     ///< stochastic loss at delivery time
  kBadEndpoints,   ///< channel cannot connect these agent kinds
  kFaultOutage,    ///< injected fault (node/region outage, crash reboot)
  kJamming,        ///< adversarial geographic denial (adversary plan)
};

/// Number of LinkStatus values — sizes the per-cause failure breakdown.
constexpr std::size_t kLinkStatusCount = 9;

std::string to_string(LinkStatus status);

/// Transfer duration for `bytes` on a channel: setup latency + serialization
/// at the configured bandwidth.
double transfer_duration(const ChannelConfig& config, std::uint64_t bytes);

/// Transfer duration accounting for endpoint distance (range_degradation).
double transfer_duration(const ChannelConfig& config, std::uint64_t bytes,
                         double distance_m);

}  // namespace roadrunner::comm
