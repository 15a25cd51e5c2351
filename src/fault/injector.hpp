// FaultInjector: interprets a (resolved, severity-scaled) FaultPlan during
// a run. It is the comm::FaultHook the Network consults on every link
// decision, the oracle the Simulator asks about HU stragglers and crash
// windows, and the roller for payload corruption.
//
// Determinism: the injector's only mutable state is a dedicated RNG stream
// (forked as "fault" from the master seed) and the recovery-probe flags; both
// are its checkpoint field list, so a checkpoint taken mid-fault-window
// resumes bit-identically. Everything else is static plan data.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "comm/fault_hook.hpp"
#include "fault/fault_plan.hpp"
#include "util/archive.hpp"
#include "util/rng.hpp"

namespace roadrunner::fault {

class FaultInjector final : public comm::FaultHook {
 public:
  /// An inert injector: no faults, never consulted.
  FaultInjector() = default;

  /// `plan` must already be resolved() and scaled().
  FaultInjector(FaultPlan plan, util::Rng rng);

  /// False for the empty plan — callers can skip wiring the hook entirely.
  [[nodiscard]] bool enabled() const { return !plan_.empty(); }

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const FaultEvent& event(std::size_t index) const {
    return plan_.events.at(index);
  }

  // ----- comm::FaultHook -----------------------------------------------------
  /// True while a node_outage window covers `node`, or a vehicle_crash has
  /// the vehicle down ([at_s, at_s + reboot_after_s)).
  [[nodiscard]] bool node_down(mobility::NodeId node,
                               double time_s) const override;
  [[nodiscard]] bool region_blocked(comm::ChannelKind kind,
                                    const mobility::Position& p,
                                    double time_s) const override;
  [[nodiscard]] comm::ChannelMods channel_mods(comm::ChannelKind kind,
                                               double time_s) const override;

  // ----- Simulator hooks -------------------------------------------------------
  /// Product of all straggler slowdowns active for this vehicle node; 1 when
  /// none. Multiplies the HU-charged duration of training/computations.
  [[nodiscard]] double hu_slowdown(mobility::NodeId vehicle_node,
                                   double time_s) const;

  /// Indices (into plan().events) of the vehicle_crash events, in plan
  /// order; the Simulator schedules one kFaultCrash event per entry.
  [[nodiscard]] const std::vector<std::size_t>& crash_indices() const {
    return crash_indices_;
  }

  /// Did a crash hit this vehicle node within (t_begin, t_end]? Used to
  /// discard training that was in flight across a crash.
  [[nodiscard]] bool crashed_between(mobility::NodeId vehicle_node,
                                     double t_begin, double t_end) const;

  /// Rolls payload corruption for a delivery on `kind` at `time_s`.
  /// Consumes randomness only while a corruption window is active on the
  /// channel (so plans without corruption leave the stream untouched).
  [[nodiscard]] bool roll_corruption(comm::ChannelKind kind, double time_s);

  /// Reports a successful delivery on `kind` at `time_s` and returns the
  /// time-to-recover value for every outage window this delivery closes
  /// (first successful delivery on an affected channel after the window
  /// ends). The Simulator records them as the "fault_recovery_s" series.
  [[nodiscard]] std::vector<double> note_delivery(comm::ChannelKind kind,
                                                  double time_s);

  // ----- checkpoint support ----------------------------------------------------
  /// Run state only (util/archive.hpp): the RNG stream and the probe flags.
  /// A probe count that differs from the rebuilt plan's throws.
  template <class Ar>
  void fields(Ar& ar) {
    ar(rng_);
    if (ar.length(probes_.size()) != probes_.size()) {
      throw std::runtime_error{
          "fault: snapshot probe count mismatch; the fault plan must not "
          "change across a restore"};
    }
    for (RecoveryProbe& probe : probes_) ar(probe.recovered);
  }

 private:
  FaultPlan plan_;
  util::Rng rng_{1};
  std::vector<std::size_t> crash_indices_;

  /// One probe per (finite outage window, affected channel): armed when the
  /// window closes, popped by the first successful delivery after it.
  struct RecoveryProbe {
    double end_s = 0.0;
    comm::ChannelKind channel = comm::ChannelKind::kV2C;
    bool recovered = false;
  };
  std::vector<RecoveryProbe> probes_;
};

}  // namespace roadrunner::fault
