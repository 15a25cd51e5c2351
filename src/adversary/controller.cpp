#include "adversary/controller.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace roadrunner::adversary {

AdversaryController::AdversaryController(AdversaryPlan plan, util::Rng rng)
    : plan_{std::move(plan)}, rng_{rng} {
  compromised_.resize(plan_.events.size());
  any_.assign(plan_.vehicle_count, false);
  for (std::size_t e = 0; e < plan_.events.size(); ++e) {
    const AdversaryEvent& ev = plan_.events[e];
    if (ev.kind == AdversaryKind::kJamming) continue;
    // Round to the nearest whole vehicle; a positive fraction that rounds
    // to zero compromises nobody (the sweep axis bottoms out cleanly).
    const auto want = static_cast<std::size_t>(
        std::llround(ev.fraction * static_cast<double>(plan_.vehicle_count)));
    const std::size_t count = std::min(want, plan_.vehicle_count);
    compromised_[e].assign(plan_.vehicle_count, false);
    if (count == 0) continue;
    for (std::size_t v :
         rng_.sample_without_replacement(plan_.vehicle_count, count)) {
      compromised_[e][v] = true;
      any_[v] = true;
    }
  }
}

std::size_t AdversaryController::compromised_count() const {
  return static_cast<std::size_t>(
      std::count(any_.begin(), any_.end(), true));
}

bool AdversaryController::compromised(std::size_t vehicle) const {
  return vehicle < any_.size() && any_[vehicle];
}

OutgoingEffect AdversaryController::transform_outgoing(std::size_t vehicle,
                                                       double time_s,
                                                       ml::Weights& weights,
                                                       double& data_amount) {
  OutgoingEffect effect;
  if (!compromised(vehicle) || weights.empty()) return effect;
  for (std::size_t e = 0; e < plan_.events.size(); ++e) {
    const AdversaryEvent& ev = plan_.events[e];
    if (ev.kind == AdversaryKind::kJamming) continue;
    if (!ev.active_at(time_s) || !compromised_[e][vehicle]) continue;
    switch (ev.kind) {
      case AdversaryKind::kModelPoison:
        for (ml::Tensor& t : weights) {
          t.mul_(static_cast<float>(ev.scale));
        }
        ++counters_.poisoned_updates;
        effect.mutated = true;
        break;
      case AdversaryKind::kByzantine:
        // Garbage that passes every structural check: same tensor shapes,
        // finite values, plausible metadata — only a statistical defense
        // can tell it apart from an honest update.
        for (ml::Tensor& t : weights) {
          for (float& v : t.values()) {
            v = static_cast<float>(rng_.normal(0.0, ev.magnitude));
          }
        }
        data_amount *= ev.weight_factor;
        ++counters_.byzantine_updates;
        effect.mutated = true;
        break;
      case AdversaryKind::kSybil:
        effect.clones += ev.clones;
        counters_.sybil_clones += ev.clones;
        break;
      case AdversaryKind::kJamming:
        break;
    }
  }
  return effect;
}

bool AdversaryController::poison_training(std::size_t vehicle,
                                          double time_s) {
  if (!compromised(vehicle)) return false;
  for (std::size_t e = 0; e < plan_.events.size(); ++e) {
    const AdversaryEvent& ev = plan_.events[e];
    if (ev.kind == AdversaryKind::kModelPoison && ev.label_flip &&
        ev.active_at(time_s) && compromised_[e][vehicle]) {
      ++counters_.label_flip_trainings;
      return true;
    }
  }
  return false;
}

bool AdversaryController::jamming_blocked(comm::ChannelKind kind,
                                          const mobility::Position& pos,
                                          double time_s) const {
  for (const AdversaryEvent& ev : plan_.events) {
    if (ev.kind != AdversaryKind::kJamming) continue;
    if (!ev.active_at(time_s)) continue;
    if (!ev.channels[static_cast<std::size_t>(kind)]) continue;
    if (mobility::distance(ev.center, pos) <= ev.radius_m) return true;
  }
  return false;
}

void AdversaryController::save_state(util::BinWriter& out) const {
  util::save_fields(out, *this);
}

void AdversaryController::load_state(util::BinReader& in) {
  util::load_fields(in, *this, "adversary");
}

}  // namespace roadrunner::adversary
