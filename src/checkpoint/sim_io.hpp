// Internal: the snapshot's section table. Each row pairs a section tag with
// one visitor, a field walk that save() runs with a util::ArchiveWriter and
// restore() runs with a util::ArchiveReader, so a section's two directions
// are one piece of code. SimulatorIo, a friend of core::Simulator, gives the
// visitors the simulator's private state. Used by snapshot.cpp, by the
// writer oracle in the tests, and by the snapshot fuzz harness.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "checkpoint/checkpoint.hpp"
#include "core/simulator.hpp"
#include "util/archive.hpp"

namespace roadrunner::checkpoint {

// Section tags. Readers skip tags they do not know, so future versions can
// add sections without breaking old snapshots (only *removing* one, or
// changing a payload layout, needs a format-version bump).
inline constexpr std::uint32_t kSectionMeta = 1;
inline constexpr std::uint32_t kSectionIni = 2;
inline constexpr std::uint32_t kSectionSim = 3;
inline constexpr std::uint32_t kSectionQueue = 4;
inline constexpr std::uint32_t kSectionStrategy = 5;
inline constexpr std::uint32_t kSectionMetrics = 6;
inline constexpr std::uint32_t kSectionTrace = 7;
inline constexpr std::uint32_t kSectionAdversary = 8;  // since v3
inline constexpr std::uint32_t kSectionWorkload = 9;   // since v4
inline constexpr std::uint32_t kSectionTraffic = 10;   // since v5

/// What the section visitors read or write.
struct Snapshot {
  SnapshotInfo& info;    ///< the meta and ini sections
  core::Simulator* sim;  ///< everything else; null while peeking
  const std::string& path;  ///< error-message context
};

/// One row of the section table.
struct Section {
  std::uint32_t tag;
  /// Prefix of the errors the section's reader raises.
  const char* context;
  /// Whether save() writes the section for this simulator.
  bool (*written)(const core::Simulator& sim);
  /// What restore() does when the file lacks the section: nothing, or
  /// throw because the rebuilt simulator needs it.
  void (*absent)(const Snapshot& snapshot);
  void (*write)(util::ArchiveWriter& ar, Snapshot& snapshot);
  void (*read)(util::ArchiveReader& ar, Snapshot& snapshot);
};

class SimulatorIo {
 public:
  static std::uint64_t pending_events(const core::Simulator& sim) {
    return sim.queue_.size();
  }
  static std::uint64_t executed_events(const core::Simulator& sim) {
    return sim.queue_.executed_count();
  }

  /// Every section, in file order. save() writes each row whose `written`
  /// holds; restore() reads each row the file has, in this order, and
  /// calls `absent` for the others.
  static std::span<const Section> sections();

 private:
  // The visitors too long for a table row: agent state, RNG streams and
  // comm bookkeeping; the pending queue; the strategy's field list.
  template <class Ar>
  static void sim_state(Ar& ar, core::Simulator& sim);
  template <class Ar>
  static void queue_state(Ar& ar, core::Simulator& sim);
  template <class Ar>
  static void strategy_state(Ar& ar, core::Simulator& sim);
};

}  // namespace roadrunner::checkpoint
