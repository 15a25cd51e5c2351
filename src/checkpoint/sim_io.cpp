#include "checkpoint/sim_io.hpp"

#include <stdexcept>
#include <utility>

#include "strategy/state_io.hpp"

namespace roadrunner::checkpoint {

namespace {

using core::AgentId;
using core::Message;
using core::SimEvent;
using core::SimEventKind;
using strategy::io::read_weights;
using strategy::io::write_weights;

void write_rng(util::BinWriter& out, const std::array<std::uint64_t, 4>& s) {
  for (std::uint64_t word : s) out.u64(word);
}

std::array<std::uint64_t, 4> read_rng(util::BinReader& in) {
  std::array<std::uint64_t, 4> s{};
  for (auto& word : s) word = in.u64();
  return s;
}

void write_message(util::BinWriter& out, const Message& msg) {
  out.u64(msg.from);
  out.u64(msg.to);
  out.u8(static_cast<std::uint8_t>(msg.channel));
  out.str(msg.tag);
  out.i64(msg.round);
  out.u64(msg.origin);
  out.f64(msg.data_amount);
  write_weights(out, msg.model);
  out.u64(msg.extra_bytes);
  out.boolean(msg.corrupted);
}

Message read_message(util::BinReader& in) {
  Message msg;
  msg.from = in.u64();
  msg.to = in.u64();
  const std::uint8_t channel = in.u8();
  if (channel >= comm::kChannelKindCount) {
    throw std::runtime_error{"checkpoint: bad channel kind in snapshot"};
  }
  msg.channel = static_cast<comm::ChannelKind>(channel);
  msg.tag = in.str();
  msg.round = static_cast<int>(in.i64());
  msg.origin = in.u64();
  msg.data_amount = in.f64();
  msg.model = read_weights(in);
  msg.extra_bytes = in.u64();
  msg.corrupted = in.boolean();
  return msg;
}

}  // namespace

void SimulatorIo::save_sim(const core::Simulator& sim, util::BinWriter& out) {
  out.u64(sim.agents_.size());
  for (const core::Agent& a : sim.agents_) {
    write_weights(out, a.model);
    out.f64(a.model_data_amount);
    out.f64(a.model_updated_s);
    out.boolean(a.training);
    const auto& indices = a.data.indices();
    out.u64(indices.size());
    for (std::uint32_t idx : indices) out.u32(idx);
    const auto& slots = a.hu.slot_ends();
    out.u64(slots.size());
    for (double end : slots) out.f64(end);
    out.f64(a.hu.total_busy_time());
  }

  write_rng(out, sim.master_rng_.state());
  write_rng(out, sim.strategy_rng_.state());
  out.u64(sim.train_job_counter_);

  write_rng(out, sim.network_.rng_state());
  for (std::size_t k = 0; k < comm::kChannelKindCount; ++k) {
    const auto& s = sim.network_.stats(static_cast<comm::ChannelKind>(k));
    out.u64(s.transfers_attempted);
    out.u64(s.transfers_delivered);
    out.u64(s.transfers_failed);
    out.u64(s.bytes_attempted);
    out.u64(s.bytes_delivered);
    // Count-prefixed since v3 so the enum can grow without another format
    // bump (v2 wrote a fixed 8 entries).
    out.u64(s.failed_by_cause.size());
    for (std::uint64_t count : s.failed_by_cause) out.u64(count);
  }

  // Injector: the plan itself is static config (rebuilt from the embedded
  // INI); only the RNG stream and recovery-probe flags are run state.
  sim.injector_.save_state(out);

  out.u64(sim.active_encounters_.size());
  for (const auto& [a, b] : sim.active_encounters_) {
    out.u64(a);
    out.u64(b);
  }

  out.u64(sim.last_power_.size());
  for (std::size_t i = 0; i < sim.last_power_.size(); ++i) {
    out.boolean(sim.last_power_[i]);
  }

  out.u64(sim.active_transfers_.size());
  for (const auto& [key, count] : sim.active_transfers_) {
    out.u64(key.first);
    out.u8(static_cast<std::uint8_t>(key.second));
    out.u64(count);
  }

  out.u64(sim.send_backlog_.size());
  for (const auto& [key, fifo] : sim.send_backlog_) {
    out.u64(key.first);
    out.u8(static_cast<std::uint8_t>(key.second));
    out.u64(fifo.size());
    for (const Message& msg : fifo) write_message(out, msg);
  }
}

void SimulatorIo::restore_sim(core::Simulator& sim, util::BinReader& in,
                              std::uint32_t version) {
  const std::uint64_t agent_count = in.u64();
  if (agent_count != sim.agents_.size()) {
    throw std::runtime_error{
        "checkpoint: agent count mismatch (snapshot " +
        std::to_string(agent_count) + " vs scenario " +
        std::to_string(sim.agents_.size()) +
        "); fork overrides must not change the fleet or dataset"};
  }
  // Train/test views share one base dataset; it backs restored views for
  // agents whose fresh view is empty (e.g. the cloud under centralized ML).
  const auto& fallback_base = sim.ml_.test_set().base_ptr();
  for (core::Agent& a : sim.agents_) {
    a.model = read_weights(in);
    a.model_data_amount = in.f64();
    a.model_updated_s = in.f64();
    a.training = in.boolean();
    const std::uint64_t n = in.u64();
    std::vector<std::uint32_t> indices;
    indices.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) indices.push_back(in.u32());
    if (n == 0) {
      a.data = ml::DatasetView{};
    } else {
      const auto& base =
          a.data.base_ptr() ? a.data.base_ptr() : fallback_base;
      if (!base) {
        throw std::runtime_error{
            "checkpoint: no dataset to attach restored data view"};
      }
      for (std::uint32_t idx : indices) {
        if (idx >= base->size()) {
          throw std::runtime_error{
              "checkpoint: data index out of range in snapshot"};
        }
      }
      a.data = ml::DatasetView{base, std::move(indices)};
    }
    const std::uint64_t slots = in.u64();
    std::vector<double> slot_ends;
    slot_ends.reserve(slots);
    for (std::uint64_t i = 0; i < slots; ++i) slot_ends.push_back(in.f64());
    const double total_busy = in.f64();
    a.hu.restore_state(std::move(slot_ends), total_busy);
  }

  sim.master_rng_.set_state(read_rng(in));
  sim.strategy_rng_.set_state(read_rng(in));
  sim.train_job_counter_ = in.u64();

  sim.network_.set_rng_state(read_rng(in));
  for (std::size_t k = 0; k < comm::kChannelKindCount; ++k) {
    comm::ChannelStats s;
    s.transfers_attempted = in.u64();
    s.transfers_delivered = in.u64();
    s.transfers_failed = in.u64();
    s.bytes_attempted = in.u64();
    s.bytes_delivered = in.u64();
    // v2 wrote exactly the 8 causes it knew; v3+ prefixes the count. Newer
    // causes (kJamming) start at zero when restoring an older snapshot.
    const std::uint64_t causes =
        version >= 3 ? in.u64() : std::uint64_t{8};
    if (causes > s.failed_by_cause.size()) {
      throw std::runtime_error{
          "checkpoint: snapshot has " + std::to_string(causes) +
          " failure causes but this build knows only " +
          std::to_string(s.failed_by_cause.size())};
    }
    for (std::uint64_t c = 0; c < causes; ++c) {
      s.failed_by_cause[c] = in.u64();
    }
    sim.network_.set_stats(static_cast<comm::ChannelKind>(k), s);
  }

  sim.injector_.load_state(in);

  // The mobility tick merge-diffs against this list, so it must be what
  // save_sim writes: agent pairs a < b < agent count, strictly ascending.
  sim.active_encounters_.clear();
  const std::uint64_t encounters = in.u64();
  for (std::uint64_t i = 0; i < encounters; ++i) {
    const AgentId a = in.u64();
    const AgentId b = in.u64();
    if (!(a < b && b < agent_count) ||
        (i > 0 && !(sim.active_encounters_.back() < std::pair{a, b}))) {
      throw std::runtime_error{
          "checkpoint: sim section has a bad active-encounter list (pair " +
          std::to_string(i) + " is out of range or out of order)"};
    }
    sim.active_encounters_.emplace_back(a, b);
  }

  const std::uint64_t power = in.u64();
  sim.last_power_.assign(power, false);
  for (std::uint64_t i = 0; i < power; ++i) sim.last_power_[i] = in.boolean();

  sim.active_transfers_.clear();
  const std::uint64_t transfers = in.u64();
  for (std::uint64_t i = 0; i < transfers; ++i) {
    const AgentId agent = in.u64();
    const auto kind = static_cast<comm::ChannelKind>(in.u8());
    sim.active_transfers_[{agent, kind}] = in.u64();
  }

  sim.send_backlog_.clear();
  const std::uint64_t backlogs = in.u64();
  for (std::uint64_t i = 0; i < backlogs; ++i) {
    const AgentId agent = in.u64();
    const auto kind = static_cast<comm::ChannelKind>(in.u8());
    const std::uint64_t depth = in.u64();
    auto& fifo = sim.send_backlog_[{agent, kind}];
    for (std::uint64_t j = 0; j < depth; ++j) {
      fifo.push_back(read_message(in));
    }
  }

  sim.restored_ = true;
}

void SimulatorIo::save_queue(const core::Simulator& sim,
                             util::BinWriter& out) {
  const auto& queue = sim.queue_;
  out.u64(queue.next_seq());
  out.u64(queue.executed_count());
  out.f64(queue.current_time());
  out.u64(queue.entries().size());
  for (const auto& entry : queue.entries()) {
    out.f64(entry.at);
    out.u64(entry.seq);
    const SimEvent& ev = entry.payload;
    if (ev.kind == SimEventKind::kClosureComputation) {
      throw std::runtime_error{
          "checkpoint: cannot snapshot a pending closure-based computation; "
          "strategies must use the tagged start_computation overload to be "
          "checkpointable"};
    }
    out.u8(static_cast<std::uint8_t>(ev.kind));
    out.u64(ev.agent);
    out.i64(ev.tag);
    out.f64(ev.duration_s);
    out.f64(ev.data_amount);
    switch (ev.kind) {
      case SimEventKind::kDeliver:
        write_message(out, ev.msg);
        break;
      case SimEventKind::kFinishTraining: {
        // Force the in-flight job: a snapshot stores the *result* (the job
        // is deterministic anyway — its RNG was fixed at launch).
        const core::TrainResult result = ev.job.get();
        write_weights(out, result.weights);
        out.f64(result.report.final_loss);
        out.f64(result.report.final_accuracy);
        out.u64(result.report.samples_seen);
        out.u64(result.report.flops);
        out.u64(result.report.steps);
        break;
      }
      default:
        break;
    }
  }
}

void SimulatorIo::restore_queue(core::Simulator& sim, util::BinReader& in) {
  const std::uint64_t next_seq = in.u64();
  const std::uint64_t executed = in.u64();
  const double current_time = in.f64();
  const std::uint64_t count = in.u64();
  std::vector<core::BasicEventQueue<SimEvent>::Entry> entries;
  entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    core::BasicEventQueue<SimEvent>::Entry entry;
    entry.at = in.f64();
    entry.seq = in.u64();
    SimEvent& ev = entry.payload;
    const std::uint8_t kind = in.u8();
    // kClosureComputation never appears in a snapshot (save() refuses), and
    // anything past the last enumerator is garbage.
    if (kind == static_cast<std::uint8_t>(SimEventKind::kClosureComputation) ||
        kind > static_cast<std::uint8_t>(SimEventKind::kPlatoonManeuver)) {
      throw std::runtime_error{"checkpoint: bad event kind in snapshot"};
    }
    ev.kind = static_cast<SimEventKind>(kind);
    ev.agent = in.u64();
    ev.tag = static_cast<int>(in.i64());
    ev.duration_s = in.f64();
    ev.data_amount = in.f64();
    switch (ev.kind) {
      case SimEventKind::kDeliver:
        ev.msg = read_message(in);
        break;
      case SimEventKind::kFinishTraining: {
        core::TrainResult result;
        result.weights = read_weights(in);
        result.report.final_loss = in.f64();
        result.report.final_accuracy = in.f64();
        result.report.samples_seen = in.u64();
        result.report.flops = in.u64();
        result.report.steps = in.u64();
        std::promise<core::TrainResult> ready;
        ready.set_value(std::move(result));
        ev.job = ready.get_future().share();
        break;
      }
      default:
        break;
    }
    entries.push_back(std::move(entry));
  }
  sim.queue_.restore(std::move(entries), next_seq, executed, current_time);
}

void SimulatorIo::save_adversary(const core::Simulator& sim,
                                 util::BinWriter& out) {
  sim.adversary_.save_state(out);
}

void SimulatorIo::restore_adversary(core::Simulator& sim,
                                    util::BinReader& in) {
  sim.adversary_.load_state(in);
}

void SimulatorIo::save_traffic(const core::Simulator& sim,
                               util::BinWriter& out) {
  sim.traffic_.save_state(out);
}

void SimulatorIo::restore_traffic(core::Simulator& sim, util::BinReader& in) {
  sim.traffic_.load_state(in);
}

void SimulatorIo::save_metrics(const core::Simulator& sim,
                               util::BinWriter& out) {
  const metrics::Registry& reg = sim.metrics_;
  const auto series_names = reg.series_names();
  out.u64(series_names.size());
  for (const std::string& name : series_names) {
    out.str(name);
    const auto& points = reg.series(name);
    out.u64(points.size());
    for (const auto& p : points) {
      out.f64(p.time_s);
      out.f64(p.value);
    }
  }
  const auto counter_names = reg.counter_names();
  out.u64(counter_names.size());
  for (const std::string& name : counter_names) {
    out.str(name);
    out.f64(reg.counter(name));
  }
}

void SimulatorIo::restore_metrics(core::Simulator& sim,
                                  util::BinReader& in) {
  metrics::Registry& reg = sim.metrics_;
  reg.clear();
  const std::uint64_t series = in.u64();
  for (std::uint64_t i = 0; i < series; ++i) {
    const std::string name = in.str();
    const std::uint64_t points = in.u64();
    for (std::uint64_t j = 0; j < points; ++j) {
      const double time_s = in.f64();
      const double value = in.f64();
      reg.add_point(name, time_s, value);
    }
  }
  const std::uint64_t counters = in.u64();
  for (std::uint64_t i = 0; i < counters; ++i) {
    const std::string name = in.str();
    reg.set_counter(name, in.f64());
  }
}

void SimulatorIo::save_trace(const core::Simulator& sim,
                             util::BinWriter& out) {
  const auto& events = sim.trace_.events();
  out.u64(events.size());
  for (const auto& e : events) {
    out.f64(e.time_s);
    out.u8(static_cast<std::uint8_t>(e.kind));
    out.u64(e.a);
    out.u64(e.b);
    out.str(e.detail);
  }
}

void SimulatorIo::restore_trace(core::Simulator& sim, util::BinReader& in) {
  const std::uint64_t count = in.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const double time_s = in.f64();
    const auto kind = static_cast<core::TraceKind>(in.u8());
    const AgentId a = in.u64();
    const AgentId b = in.u64();
    std::string detail = in.str();
    // record() is gated on the trace's enabled flag, which the rebuilt
    // simulator derives from the same experiment INI — a fork that turns
    // tracing off simply drops the history.
    sim.trace_.record(time_s, kind, a, b, std::move(detail));
  }
}

}  // namespace roadrunner::checkpoint
