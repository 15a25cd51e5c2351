// The Communication module (paper §4): decides link viability between any
// two endpoints at a point in simulated time, converts payload bytes into
// transfer durations, and keeps the per-channel volume accounting the Core
// Simulator exposes as metrics ("The Communication module also keeps track
// of the data volumes transmitted", §4).
//
// Endpoints are mobility NodeIds plus one virtual endpoint, the cloud
// server (kCloudEndpoint), which has no position and is always on.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "comm/channel.hpp"
#include "comm/coverage.hpp"
#include "comm/fault_hook.hpp"
#include "mobility/fleet_model.hpp"
#include "util/rng.hpp"

namespace roadrunner::comm {

/// The cloud server as a communication endpoint.
inline constexpr mobility::NodeId kCloudEndpoint =
    std::numeric_limits<mobility::NodeId>::max();

struct LinkCheck {
  LinkStatus status = LinkStatus::kOk;
  [[nodiscard]] bool ok() const { return status == LinkStatus::kOk; }
};

/// Per-channel traffic statistics, in bytes and transfer counts. Failures
/// are additionally attributed to their cause (indexed by LinkStatus), so
/// "transfers_failed" can be broken down into range vs. power vs. coverage
/// vs. random loss vs. injected faults.
struct ChannelStats {
  std::uint64_t transfers_attempted = 0;
  std::uint64_t transfers_delivered = 0;
  std::uint64_t transfers_failed = 0;
  std::uint64_t bytes_attempted = 0;
  std::uint64_t bytes_delivered = 0;
  /// failed_by_cause[status] counts failures with that LinkStatus; the
  /// kOk slot stays zero and the others sum to transfers_failed.
  std::array<std::uint64_t, kLinkStatusCount> failed_by_cause{};

  /// Archive field list (util/archive.hpp). The cause array is
  /// count-prefixed since format v3, so the enum can grow without another
  /// format bump; v2 wrote exactly the 8 causes it knew, and newer causes
  /// (kJamming) start at zero when restoring one.
  template <class Ar>
  void fields(Ar& ar) {
    ar(transfers_attempted, transfers_delivered, transfers_failed,
       bytes_attempted, bytes_delivered);
    const std::uint64_t causes = ar.version() >= 3
                                     ? ar.length(failed_by_cause.size())
                                     : std::uint64_t{8};
    if (causes > failed_by_cause.size()) {
      throw std::runtime_error{
          "checkpoint: snapshot has " + std::to_string(causes) +
          " failure causes but this build knows only " +
          std::to_string(failed_by_cause.size())};
    }
    for (std::uint64_t c = 0; c < causes; ++c) ar(failed_by_cause[c]);
  }
};

class Network {
 public:
  struct Config {
    ChannelConfig v2c = default_v2c();
    ChannelConfig v2x = default_v2x();
    ChannelConfig wired = default_wired();
    CoverageModel coverage;  ///< full coverage by default
  };

  /// `fleet` must outlive the network.
  Network(const mobility::FleetModel& fleet, Config config, util::Rng rng);

  /// Installs (or clears, with nullptr) the fault-injection hook. The hook
  /// is consulted exactly once per viability decision — both check_link and
  /// roll_delivery go through the same shared path — and must outlive the
  /// network.
  void set_fault_hook(const FaultHook* hook) { fault_ = hook; }

  /// Is a transfer from `from` to `to` on `kind` viable at `time_s`?
  /// Validates endpoint kinds (V2C requires exactly one cloud endpoint;
  /// V2X forbids the cloud; wired connects RSU/cloud only), power state,
  /// range, V2C coverage, and any injected faults (node/region outages).
  /// Does NOT roll random loss — that happens at delivery via
  /// roll_delivery().
  [[nodiscard]] LinkCheck check_link(mobility::NodeId from,
                                     mobility::NodeId to, ChannelKind kind,
                                     double time_s) const;

  /// Delivery-time check: revalidates the link through the same viability
  /// path as check_link (endpoints may have moved or powered off
  /// mid-transfer, §5.1) and rolls the channel's random loss, including any
  /// fault-injected extra loss.
  [[nodiscard]] LinkCheck roll_delivery(mobility::NodeId from,
                                        mobility::NodeId to, ChannelKind kind,
                                        double time_s);

  [[nodiscard]] double duration(ChannelKind kind, std::uint64_t bytes) const;

  /// Transfer duration between two concrete endpoints at `time_s`; applies
  /// distance-dependent bandwidth degradation on range-limited channels.
  [[nodiscard]] double duration_between(mobility::NodeId from,
                                        mobility::NodeId to, ChannelKind kind,
                                        std::uint64_t bytes,
                                        double time_s) const;

  [[nodiscard]] const ChannelConfig& channel(ChannelKind kind) const;

  // Accounting hooks, called by the Core Simulator around each transfer.
  void record_attempt(ChannelKind kind, std::uint64_t bytes);
  void record_delivery(ChannelKind kind, std::uint64_t bytes);
  /// `cause` attributes the failure in ChannelStats::failed_by_cause.
  void record_failure(ChannelKind kind, LinkStatus cause);

  [[nodiscard]] const ChannelStats& stats(ChannelKind kind) const;

  // ----- checkpoint support -------------------------------------------------
  /// The delivery-loss RNG stream (it advances on every roll_delivery;
  /// restoring it replays the same loss sequence) and the per-channel
  /// counters, as an archive field list (util/archive.hpp).
  template <class Ar>
  void fields(Ar& ar) {
    ar(rng_, stats_);
  }

 private:
  /// The single shared viability path behind check_link and roll_delivery:
  /// endpoint kinds, power, fault outages, range, coverage — everything
  /// except the delivery-time loss roll. Fault hooks fire exactly once per
  /// call.
  [[nodiscard]] LinkCheck viability(mobility::NodeId from, mobility::NodeId to,
                                    ChannelKind kind, double time_s) const;

  const mobility::FleetModel* fleet_;
  Config config_;
  util::Rng rng_;
  const FaultHook* fault_ = nullptr;
  std::array<ChannelStats, kChannelKindCount> stats_{};
};

}  // namespace roadrunner::comm
