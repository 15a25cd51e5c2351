#include "checkpoint/sim_io.hpp"

#include <array>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace roadrunner::checkpoint {

namespace {

using core::AgentId;
using core::SimEventKind;

/// Restore-side range check for an agent id read from a snapshot: every
/// later use indexes the agent table with it.
void check_agent(const util::ArchiveReader& ar, AgentId id,
                 std::size_t agents, const char* role) {
  if (id >= agents) {
    ar.fail(std::string{role} + " " + std::to_string(id) +
            " is not an agent (the scenario has " + std::to_string(agents) +
            ")");
  }
}

void check_message(const util::ArchiveReader& ar, const core::Message& msg,
                   std::size_t agents) {
  check_agent(ar, msg.from, agents, "message sender");
  check_agent(ar, msg.to, agents, "message recipient");
}

/// Restore-side range check for an event tag that indexes a table the INI
/// rebuilt (the fault plan, the traffic timeline): the event indexes it
/// when it fires.
void check_index(const util::ArchiveReader& ar, int index, std::size_t size,
                 const char* role) {
  if (index < 0 || static_cast<std::size_t>(index) >= size) {
    ar.fail(std::string{role} + " " + std::to_string(index) +
            " is out of range (the scenario has " + std::to_string(size) +
            ")");
  }
}

/// A (sender, channel) key of the transfer and backlog maps.
void check_sender(const util::ArchiveReader& ar,
                  const std::pair<AgentId, comm::ChannelKind>& key,
                  std::size_t agents) {
  check_agent(ar, key.first, agents, "sender");
  ar.check(static_cast<std::size_t>(key.second) < comm::kChannelKindCount,
           "bad channel kind in snapshot");
}

}  // namespace

template <class Ar>
void SimulatorIo::sim_state(Ar& ar, core::Simulator& sim) {
  const std::uint64_t agents = sim.agents_.size();
  if (const std::uint64_t saved = ar.length(agents); saved != agents) {
    throw std::runtime_error{
        "checkpoint: agent count mismatch (snapshot " + std::to_string(saved) +
        " vs scenario " + std::to_string(agents) +
        "); fork overrides must not change the fleet or dataset"};
  }
  // Train/test views share one base dataset; it backs restored views for
  // agents whose fresh view is empty (e.g. the cloud under centralized ML).
  const auto& fallback_base = sim.ml_.test_set().base_ptr();
  for (core::Agent& a : sim.agents_) a.fields(ar, fallback_base);
  // The injector's plan is static config, rebuilt from the embedded INI;
  // its field list is the run state only.
  ar(sim.master_rng_, sim.strategy_rng_, sim.train_job_counter_,
     sim.network_, sim.injector_, sim.active_encounters_, sim.last_power_,
     sim.active_transfers_, sim.send_backlog_);
  if constexpr (Ar::kLoading) {
    // The mobility tick merge-diffs against this list, so it must be what
    // the writer produces: agent pairs a < b < agent count, strictly
    // ascending.
    const auto& pairs = sim.active_encounters_;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto [a, b] = pairs[i];
      if (!(a < b && b < agents) || (i > 0 && !(pairs[i - 1] < pairs[i]))) {
        throw std::runtime_error{
            "checkpoint: sim section has a bad active-encounter list (pair " +
            std::to_string(i) + " is out of range or out of order)"};
      }
    }
    for (const auto& entry : sim.active_transfers_) {
      check_sender(ar, entry.first, agents);
    }
    for (const auto& [key, fifo] : sim.send_backlog_) {
      check_sender(ar, key, agents);
      for (const core::Message& msg : fifo) check_message(ar, msg, agents);
    }
    sim.restored_ = true;
  }
}

template <class Ar>
void SimulatorIo::queue_state(Ar& ar, core::Simulator& sim) {
  ar(sim.queue_);
  if constexpr (Ar::kLoading) {
    const std::size_t agents = sim.agents_.size();
    for (const auto& entry : sim.queue_.entries()) {
      const core::SimEvent& ev = entry.payload;
      // Training, computation and crash events act on their agent; the
      // others carry one at most.
      const bool acts = ev.kind == SimEventKind::kFinishTraining ||
                        ev.kind == SimEventKind::kComputation ||
                        ev.kind == SimEventKind::kFaultCrash;
      if (acts || ev.agent != core::kNoAgent) {
        check_agent(ar, ev.agent, agents, "event agent");
      }
      if (ev.kind == SimEventKind::kDeliver) check_message(ar, ev.msg, agents);
      if (ev.kind == SimEventKind::kFaultCrash) {
        const auto& plan = sim.injector_.plan().events;
        check_index(ar, ev.tag, plan.size(), "crash event's fault plan index");
        ar.check(plan[static_cast<std::size_t>(ev.tag)].kind ==
                     fault::FaultKind::kVehicleCrash,
                 "crash event names a fault that is not a vehicle_crash");
      } else if (ev.kind == SimEventKind::kSignalPhase) {
        check_index(ar, ev.tag, sim.traffic_.timeline().phases.size(),
                    "signal phase index");
      } else if (ev.kind == SimEventKind::kPlatoonManeuver) {
        check_index(ar, ev.tag, sim.traffic_.timeline().maneuvers.size(),
                    "platoon maneuver index");
      }
    }
  }
}

template <class Ar>
void SimulatorIo::strategy_state(Ar& ar, core::Simulator& sim) {
  strategy::LearningStrategy* s = sim.strategy_.get();
  if constexpr (Ar::kLoading) {
    s->set_snapshot_version(ar.version());
    s->set_snapshot_agents(sim.agents_.size());
    s->load_state(ar.in());
    s->set_snapshot_version(util::kLatestLayout);
    s->set_snapshot_agents(static_cast<std::size_t>(-1));
  } else if (s != nullptr) {
    s->save_state(ar.out());
  }
}

namespace {

/// The density/drift workload fingerprint (format v4). The streaming
/// workload carries no dynamic state of its own (stream, eval windows and
/// drift plan rebuild from the embedded INI), so the section is a guard:
/// restore rejects a rebuilt substrate whose objective family, GMM shape
/// or eval-window layout differs from the one the agent models trained on.
struct Workload {
  bool density = false;
  std::uint64_t components = 0;
  std::uint64_t dims = 0;
  std::vector<std::pair<double, std::uint64_t>> windows;  ///< start, size

  explicit Workload(const core::MlService& ml)
      : density{ml.density()},
        components{ml.density_spec().components},
        dims{ml.density_spec().dims} {
    for (const auto& w : ml.eval_windows()) {
      windows.emplace_back(w.start_s, w.data.size());
    }
  }

  template <class Ar>
  void fields(Ar& ar) {
    ar(density, components, dims, windows);
  }

  [[nodiscard]] bool matches(const Workload& live) const {
    return density == live.density &&
           (!density ||
            (components == live.components && dims == live.dims)) &&
           windows == live.windows;
  }
};

bool fingerprinted(const core::Simulator& sim) {
  return sim.ml().density() || sim.ml().has_eval_windows();
}

template <class Ar>
void visit_workload(Ar& ar, const Snapshot& s) {
  const Workload live{s.sim->ml()};
  if constexpr (Ar::kLoading) {
    Workload saved = live;
    ar(saved);
    if (!saved.matches(live)) {
      throw std::runtime_error{
          "checkpoint: '" + s.path +
          "' was saved under a different workload (objective family, GMM "
          "shape, or eval-window layout changed) — overrides must not alter "
          "the [workload] or [drift] configuration"};
    }
  } else {
    ar(live);
  }
}

template <class Ar>
void visit_traffic(Ar& ar, const Snapshot& s,
                   traffic::TrafficRuntime& runtime) {
  if (Ar::kLoading && !runtime.enabled()) {
    throw std::runtime_error{
        "checkpoint: '" + s.path +
        "' carries traffic state but the rebuilt experiment has no active "
        "traffic plan — overrides must not alter [traffic] or [platoon]"};
  }
  ar(runtime);
}

bool always(const core::Simulator& /*sim*/) { return true; }

void tolerated(const Snapshot& /*snapshot*/) {}

template <std::uint32_t tag>
void required(const Snapshot& /*snapshot*/) {
  throw std::runtime_error{"checkpoint: snapshot is missing section " +
                           std::to_string(tag)};
}

/// A row whose one visitor serves both directions.
template <auto visit>
constexpr Section row(std::uint32_t tag, const char* context,
                      bool (*written)(const core::Simulator&),
                      void (*absent)(const Snapshot&)) {
  return {tag, context, written, absent,
          [](util::ArchiveWriter& ar, Snapshot& s) { visit(ar, s); },
          [](util::ArchiveReader& ar, Snapshot& s) { visit(ar, s); }};
}

}  // namespace

// A member, so that the row visitors reach the simulator's private state.
std::span<const Section> SimulatorIo::sections() {
  static constexpr std::array kSections = {
      row<[](auto& ar, Snapshot& s) {
        ar(s.info.sim_time_s, s.info.events_executed, s.info.pending_events,
           s.info.strategy_name, s.info.seed);
      }>(kSectionMeta, "checkpoint: meta section", always,
         required<kSectionMeta>),
      row<[](auto& ar, Snapshot& s) { ar(s.info.experiment_ini); }>(
          kSectionIni, "checkpoint: ini section", always,
          required<kSectionIni>),
      row<[](auto& ar, Snapshot& s) { sim_state(ar, *s.sim); }>(
          kSectionSim, "checkpoint: sim section", always,
          required<kSectionSim>),
      row<[](auto& ar, Snapshot& s) { queue_state(ar, *s.sim); }>(
          kSectionQueue, "checkpoint: queue section", always,
          required<kSectionQueue>),
      row<[](auto& ar, Snapshot& s) { ar(s.sim->adversary_); }>(
          kSectionAdversary, "checkpoint: adversary section",
          [](const core::Simulator& sim) {
            return sim.adversary().enabled();
          },
          tolerated),
      row<[](auto& ar, Snapshot& s) { visit_workload(ar, s); }>(
          kSectionWorkload, "checkpoint: workload section", fingerprinted,
          [](const Snapshot& s) {
            // The snapshot predates (or never had) a drift workload but the
            // rebuilt experiment selects one: only possible via fork
            // overrides.
            if (fingerprinted(*s.sim)) {
              throw std::runtime_error{
                  "checkpoint: '" + s.path +
                  "' has no workload fingerprint but the experiment now "
                  "selects a density/drift workload — overrides must not "
                  "alter [workload]"};
            }
          }),
      row<[](auto& ar, Snapshot& s) {
        visit_traffic(ar, s, s.sim->traffic_);
      }>(kSectionTraffic, "checkpoint: traffic section",
         [](const core::Simulator& sim) { return sim.traffic().enabled(); },
         [](const Snapshot& s) {
           if (s.sim->traffic().enabled()) {
             throw std::runtime_error{
                 "checkpoint: '" + s.path +
                 "' has no traffic section but the rebuilt experiment "
                 "activates a traffic plan — overrides must not alter "
                 "[traffic] or [platoon]"};
           }
         }),
      row<[](auto& ar, Snapshot& s) { strategy_state(ar, *s.sim); }>(
          kSectionStrategy, "checkpoint: strategy section", always,
          required<kSectionStrategy>),
      row<[](auto& ar, Snapshot& s) { ar(s.sim->metrics_); }>(
          kSectionMetrics, "checkpoint: metrics section", always, tolerated),
      row<[](auto& ar, Snapshot& s) { ar(s.sim->trace_); }>(
          kSectionTrace, "checkpoint: trace section", always, tolerated),
  };
  return kSections;
}

}  // namespace roadrunner::checkpoint
