// Checkpoint/restore subsystem: versioned binary snapshots of a *running*
// simulation.
//
// A snapshot captures everything the next event needs: the simulation
// clock, the pending event queue (typed SimEvents; in-flight training
// results are forced and embedded), every agent's model/data/HU occupancy,
// the comm layer's counters and loss RNG, the strategy's round state, all
// RNG stream states, metrics, and the event trace — plus the experiment's
// own INI description, so a snapshot is a self-contained rebuild recipe.
//
// Determinism contract (tested): restoring a mid-run snapshot and
// continuing produces the *identical* event trace and final metrics as the
// uninterrupted run. Autosaves therefore make long campaigns crash-safe
// (resume from the last snapshot instead of re-running from t=0), and
// restore-with-overrides forks "what-if" ablations from any saved instant.
//
// File format (little-endian):
//   "RRCK" magic | u32 format version | u32 section count
//   per section: u32 tag | u64 payload size | payload bytes
//   u32 CRC-32 trailer over everything before it
// The last section (tag 11, since v6) is the model table: each distinct
// model once. A model field anywhere else is a u32 index into it, so a
// model that many agents, messages and buffers hold is stored once.
// Unknown *future* versions, bad magic, bad CRC, and truncation are all
// rejected with distinct std::runtime_error messages; extra (unknown)
// section tags are ignored, so the format can grow compatibly.
//
// Payloads: every stateful class (agents, messages, the event queue, the
// network, fault/adversary/traffic run state, strategies, metrics, trace)
// lists its persisted state once, in a `fields(ar)` member that the writer
// and the reader both run (util/archive.hpp). The sections are one table
// in sim_io.cpp, {tag, written(sim), absent(snapshot), visitor}, walked by
// save() and restore() alike. To add a field, append it to its class's
// fields() — behind `ar.version() >= N` with a kFormatVersion bump if
// older snapshots must still restore. To add a section, add a tag and a
// row. CheckpointBytes.RestoreThenSaveReproducesTheImage checks that every
// section reads back to the bytes it was written from.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "scenario/experiment.hpp"

namespace roadrunner::checkpoint {

// Version 2: ChannelStats per-cause failure breakdown, fault-injector
// state, Agent::model_updated_s, Message::corrupted.
// Version 3: adversary-controller section (tag 8, present when an adversary
// plan is active), count-prefixed per-cause failure arrays (v2 wrote a
// fixed 8; kJamming grew the enum to 9), and contribution-origin vectors in
// the round-based strategies' state.
// Version 4: workload-fingerprint section (tag 9, present for density/drift
// workloads). The streaming workload carries no dynamic state of its own —
// the telemetry stream, eval windows, and drift plan all rebuild
// deterministically from the embedded INI — so the section is a consistency
// guard: restore verifies the rebuilt substrate matches the fingerprint
// (objective family, GMM shape, eval-window layout) and rejects forks that
// would silently change the workload under saved agent models.
// Version 5: traffic section (tag 10, present when a traffic timeline is
// active) — live signal phases, queue occupancy, platoon membership, and
// the applied-event counters. The timeline itself (phase/maneuver
// schedules, queue-shaped traces) rebuilds from the embedded INI; the two
// new SimEvent kinds (kSignalPhase, kPlatoonManeuver) ride in the existing
// queue section. v4 and older snapshots restore unchanged: they predate
// [traffic] sections, so the runtime stays inert.
// Version 6: model table (tag 11, always written, last in the file). Every
// model field (agents, messages, forced training results, strategy
// buffers) is a u32 index into it instead of an inline u64 length +
// encoding; a model many fields hold is stored once, which roughly halves
// an opportunistic run's snapshot. v2-v5 snapshots restore with no table
// attached, so their inline models read as before.
inline constexpr std::uint32_t kFormatVersion = 6;

/// Oldest snapshot version restore() still accepts. v2 snapshots restore
/// cleanly: they predate the adversary subsystem (no [adversary.N] in their
/// embedded INI, controller stays inert), their fixed-size cause arrays are
/// widened on read, and version-gated strategy fields default sanely. v3
/// snapshots predate the workload section; they rebuild as the static CNN
/// workload their embedded INI describes, so no fingerprint is needed.
inline constexpr std::uint32_t kMinRestoreVersion = 2;

/// Cheap header peek (no scenario rebuild): what a snapshot contains.
struct SnapshotInfo {
  std::uint32_t format_version = 0;
  double sim_time_s = 0.0;
  std::uint64_t events_executed = 0;
  std::uint64_t pending_events = 0;
  std::string strategy_name;
  std::uint64_t seed = 0;
  std::string experiment_ini;  ///< the embedded rebuild recipe
};

/// Snapshots `sim` (between events — the simulator calls this from its
/// autosave hook; callers may also snapshot a not-yet-run simulator).
/// `experiment` is embedded so restore() can rebuild the scenario and
/// strategy. The write is atomic and durable: tmp file + fsync + rename +
/// directory fsync, so a crash mid-save never corrupts an existing
/// snapshot.
void save(const core::Simulator& sim, const util::IniFile& experiment,
          const std::string& path);

/// A simulation reinstated from a snapshot, ready to continue.
struct RestoredRun {
  util::IniFile experiment;
  std::shared_ptr<scenario::Scenario> scenario;  ///< owns fleet + dataset
  std::shared_ptr<strategy::LearningStrategy> strategy;
  std::unique_ptr<core::Simulator> simulator;  ///< resumes mid-flight

  /// Runs the simulation to completion and collects the standard result.
  scenario::RunResult finish();
};

/// Validates and loads a snapshot: rebuilds the scenario and strategy from
/// the embedded experiment INI (same seed -> identical substrate), then
/// overlays the saved dynamic state. Calling run() on the returned
/// simulator continues exactly where the snapshot was taken.
/// Throws std::runtime_error on bad magic, unsupported future version,
/// CRC mismatch, or truncation.
RestoredRun restore(const std::string& path);

/// What-if fork: restore, but with experiment keys overridden first
/// ("section.key" -> value, e.g. {"network.v2c_loss", "0.2"}). Overrides
/// must not change the fleet, dataset, partition, or model architecture —
/// the saved dynamic state would no longer fit, and restore throws on the
/// mismatch it can detect (agent counts, model shapes).
RestoredRun fork(const std::string& path,
                 const std::map<std::string, std::string>& overrides);

/// Reads and validates only the snapshot's metadata.
SnapshotInfo peek(const std::string& path);

/// peek() over an in-memory snapshot image instead of a file — the same
/// magic/version/CRC/section-table validation with "<memory>" standing in
/// for the path in error messages. Fuzz-harness entry point.
SnapshotInfo peek_bytes(const std::string& image);

/// Crash-safe experiment driver: if `ckpt_path` exists, resume from it;
/// otherwise start fresh. Either way, autosave to `ckpt_path` every
/// `every_s` simulated seconds (<= 0: use the experiment's
/// scenario.checkpoint_every_s; if that is also unset, no autosaves).
/// The checkpoint file is left in place on completion; callers that treat
/// it as scratch (the campaign engine) delete it after recording results.
scenario::RunResult run_resumable(const util::IniFile& experiment,
                                  const std::string& ckpt_path,
                                  double every_s = 0.0);

}  // namespace roadrunner::checkpoint
