// Interprets an AdversaryPlan during a run — the malicious counterpart of
// fault::FaultInjector. The controller owns the compromised-vehicle sets
// (drawn once per event from its forked RNG stream), mutates outgoing
// model payloads on the core's send path, answers jamming queries through
// the comm::FaultHook seam, and carries checkpointable state (RNG stream +
// attack counters) so a mid-attack resume is bit-identical.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "adversary/adversary_plan.hpp"
#include "comm/fault_hook.hpp"
#include "ml/net.hpp"
#include "util/archive.hpp"
#include "util/rng.hpp"

namespace roadrunner::adversary {

/// Attack bookkeeping, exported by the simulator as `adversary_*` counters.
struct AttackCounters {
  std::uint64_t poisoned_updates = 0;    ///< weight payloads scaled/flipped
  std::uint64_t byzantine_updates = 0;   ///< payloads replaced with garbage
  std::uint64_t sybil_clones = 0;        ///< extra cloned sends injected
  std::uint64_t label_flip_trainings = 0;  ///< trainings run on flipped labels

  template <class Ar>
  void fields(Ar& ar) {
    ar(poisoned_updates, byzantine_updates, sybil_clones,
       label_flip_trainings);
  }
};

/// What transform_outgoing did to one message.
struct OutgoingEffect {
  std::size_t clones = 0;  ///< extra identical copies the caller must send
  bool mutated = false;    ///< weights or data_amount were altered
};

class AdversaryController final : public comm::FaultHook {
 public:
  /// An inert controller: enabled() is false, every query is a no-op.
  AdversaryController() = default;

  /// `plan` must already be resolved() and scaled(); `rng` should be a
  /// dedicated fork (the simulator uses `Rng{seed}.fork("adversary")`).
  /// The per-event compromised sets are drawn here, in event order, so the
  /// same (plan, seed) always compromises the same vehicles.
  AdversaryController(AdversaryPlan plan, util::Rng rng);

  [[nodiscard]] bool enabled() const { return !plan_.empty(); }

  /// Vehicles (fleet node indices) compromised by at least one event.
  [[nodiscard]] std::size_t compromised_count() const;
  [[nodiscard]] bool compromised(std::size_t vehicle) const;

  /// Applies every active poisoning/byzantine transform to an outgoing
  /// model-bearing payload from `vehicle` and reports how many extra sybil
  /// clones the caller must send. Mutates weights/data_amount in place and
  /// advances the RNG stream (byzantine garbage), so callers must invoke it
  /// exactly once per logical send, on the simulation thread.
  OutgoingEffect transform_outgoing(std::size_t vehicle, double time_s,
                                    ml::Weights& weights,
                                    double& data_amount);

  /// True if a model_poison event with label_flip compromises `vehicle` at
  /// `time_s` — the core then trains that vehicle on shifted labels.
  /// Counts the poisoned training.
  [[nodiscard]] bool poison_training(std::size_t vehicle, double time_s);

  [[nodiscard]] const AttackCounters& counters() const { return counters_; }

  // ----- comm::FaultHook (jamming only) -------------------------------------
  [[nodiscard]] bool node_down(mobility::NodeId /*node*/,
                               double /*time_s*/) const override {
    return false;
  }
  [[nodiscard]] bool region_blocked(comm::ChannelKind /*kind*/,
                                    const mobility::Position& /*pos*/,
                                    double /*time_s*/) const override {
    return false;
  }
  [[nodiscard]] comm::ChannelMods channel_mods(
      comm::ChannelKind /*kind*/, double /*time_s*/) const override {
    return {};
  }
  [[nodiscard]] bool jamming_blocked(comm::ChannelKind kind,
                                     const mobility::Position& pos,
                                     double time_s) const override;

  // ----- checkpoint support -------------------------------------------------
  /// Dynamic state only (util/archive.hpp): the RNG stream position and the
  /// attack counters. The compromised sets are re-drawn identically at
  /// construction, so only their shape is stored, and a snapshot taken
  /// under a different plan shape throws std::runtime_error.
  template <class Ar>
  void fields(Ar& ar) {
    ar(rng_);
    if (ar.length(plan_.events.size()) != plan_.events.size() ||
        ar.length(compromised_count()) != compromised_count()) {
      throw std::runtime_error{
          "adversary: snapshot plan shape mismatch; the adversary plan must "
          "not change across a restore"};
    }
    ar(counters_);
  }

 private:
  AdversaryPlan plan_;
  util::Rng rng_;
  /// compromised_[e] is the per-event membership mask over vehicle indices
  /// (empty for jamming events); any_ is their union.
  std::vector<std::vector<bool>> compromised_;
  std::vector<bool> any_;
  AttackCounters counters_;
};

}  // namespace roadrunner::adversary
