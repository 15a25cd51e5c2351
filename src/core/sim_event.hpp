// Typed scheduled-event payload for the Core Simulator's queue.
//
// Every event the simulator schedules is one of a closed set of kinds with
// plain-data fields (plus, for in-flight training, a future whose result is
// forced and stored at checkpoint time). This is the property the
// checkpoint subsystem rests on: a pending queue of SimEvents serializes
// into a snapshot and restores bit-identically, which a queue of closures
// never could.
#pragma once

#include <future>
#include <utility>

#include "core/message.hpp"
#include "core/ml_service.hpp"

namespace roadrunner::core {

enum class SimEventKind : std::uint8_t {
  kMobilityTick = 0,        ///< periodic encounter/power diff; reschedules
  kDeliver = 1,             ///< a message leaves the wire (msg)
  kFinishTraining = 2,      ///< training ends (agent, tag, durations, job)
  kComputation = 3,         ///< tagged HU computation ends (agent, tag)
  kTimer = 4,               ///< strategy timer fires (agent, tag)
  // 5 is retired (a closure computation, which no snapshot could hold):
  // never reuse it; a snapshot holding it is rejected on restore.
  kFaultCrash = 6,          ///< scripted vehicle crash (agent; tag = plan idx)
  kSignalPhase = 7,         ///< traffic signal phase change (tag = timeline idx)
  kPlatoonManeuver = 8,     ///< platoon membership change (tag = timeline idx)
};

struct SimEvent {
  SimEventKind kind = SimEventKind::kMobilityTick;
  AgentId agent = kNoAgent;
  /// round_tag (kFinishTraining), completion tag (kComputation), or
  /// timer_id (kTimer).
  int tag = 0;
  double duration_s = 0.0;    ///< simulated duration charged for the work
  double data_amount = 0.0;   ///< samples behind a training result
  Message msg;                ///< kDeliver payload
  std::shared_future<TrainResult> job;  ///< kFinishTraining result

  /// Archive field list (util/archive.hpp). An in-flight training job is
  /// forced on write (MlService::await) and stored as its result (the job
  /// is deterministic: its RNG was fixed at launch); the reader hands it
  /// back as a ready future. The reader rejects the retired kind 5 and any byte past the
  /// last enumerator. Agent ids are range-checked by the caller, which
  /// knows the agent count.
  template <class Ar>
  void fields(Ar& ar) {
    ar(kind);
    ar.check(kind != SimEventKind{5} && kind <= SimEventKind::kPlatoonManeuver,
             "bad event kind in snapshot");
    ar(agent, tag, duration_s, data_amount);
    if (kind == SimEventKind::kDeliver) {
      ar(msg);
    } else if (kind == SimEventKind::kFinishTraining) {
      if constexpr (Ar::kLoading) {
        TrainResult result;
        ar(result);
        std::promise<TrainResult> ready;
        ready.set_value(std::move(result));
        job = ready.get_future().share();
      } else {
        ar(MlService::await(job));
      }
    }
  }
};

}  // namespace roadrunner::core
