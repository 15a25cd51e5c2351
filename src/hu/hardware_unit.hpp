// Hardware Unit (HU) model, paper §4: "instances of the actual hardware
// existing within vehicles that allows achieving realistic performance and
// training times (while an agent is busy training, it may not be available
// for other operations)".
//
// The paper's prototype times real PyTorch scripts on a GPU and feeds the
// wall time into the simulator. We instead charge simulated time from an
// analytic cost model — duration = dispatch overhead + FLOPs / effective
// throughput — which keeps runs deterministic and hardware-independent
// while preserving the relative costs that matter (bigger models and more
// data train longer; cloud >> RSU >> OBU throughput). See DESIGN.md §1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace roadrunner::hu {

struct DeviceClass {
  std::string name;
  /// Effective sustained training throughput in FLOP/s. Deliberately far
  /// below marketing peak numbers: small-batch CNN training on embedded
  /// hardware is memory- and launch-overhead-bound.
  double flops_per_s = 1.0e9;
  /// Fixed per-operation cost (framework dispatch, data staging) — dominant
  /// for tiny workloads, mirroring the script start-up the paper measures.
  double dispatch_overhead_s = 0.5;
  /// How many operations the unit can run concurrently (paper: "the HUs can
  /// run multiple operations in parallel"). 1 for an OBU.
  std::size_t parallel_slots = 1;
};

/// A vehicular on-board unit: embedded-GPU class (the paper uses a
/// GTX 1080 Ti as stand-in but notes real OBU headroom "is limited as on
/// older GPUs", §5.2 footnote).
DeviceClass obu_device();

/// A road-side unit: small server class.
DeviceClass rsu_device();

/// The cloud server: data-center class with many parallel slots.
DeviceClass cloud_device();

/// Tracks an agent's compute occupancy in simulated time. The simulator
/// asks for an operation's duration, reserves a slot over that window, and
/// rejects new work when all slots are busy.
class HardwareUnit {
 public:
  explicit HardwareUnit(DeviceClass device);

  [[nodiscard]] const DeviceClass& device() const { return device_; }

  /// Simulated duration of a compute operation of `flops` total work.
  [[nodiscard]] double operation_duration(std::uint64_t flops) const;

  /// True if at least one slot is free at `time_s`.
  [[nodiscard]] bool available(double time_s) const;

  /// Number of busy slots at `time_s`.
  [[nodiscard]] std::size_t busy_slots(double time_s) const;

  /// Reserves a slot for [time_s, time_s + duration). Returns false (and
  /// reserves nothing) if all slots are busy at time_s.
  bool reserve(double time_s, double duration_s);

  /// Cumulative reserved compute time (for the per-vehicle computational
  /// workload metric, Req. 4).
  [[nodiscard]] double total_busy_time() const { return total_busy_; }

  // ----- checkpoint support -------------------------------------------------
  /// Occupancy as an archive field list (util/archive.hpp): the reserved
  /// slot end times (unordered; compaction is lazy and order-independent,
  /// so round-tripping them preserves behaviour) and the busy total.
  template <class Ar>
  void fields(Ar& ar) {
    ar(slot_ends_, total_busy_);
  }

 private:
  DeviceClass device_;
  /// End times of currently reserved slots; lazily compacted.
  std::vector<double> slot_ends_;
  double total_busy_ = 0.0;
};

}  // namespace roadrunner::hu
