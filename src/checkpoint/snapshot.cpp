#include "checkpoint/checkpoint.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "checkpoint/sim_io.hpp"
#include "telemetry/telemetry.hpp"
#include "util/binary_io.hpp"
#include "util/log.hpp"

namespace roadrunner::checkpoint {

namespace {

constexpr char kMagic[4] = {'R', 'R', 'C', 'K'};

// Section tags. Readers skip tags they do not know, so future versions can
// add sections without breaking old snapshots (only *removing* one, or
// changing a payload layout, needs a format-version bump).
constexpr std::uint32_t kSectionMeta = 1;
constexpr std::uint32_t kSectionIni = 2;
constexpr std::uint32_t kSectionSim = 3;
constexpr std::uint32_t kSectionQueue = 4;
constexpr std::uint32_t kSectionStrategy = 5;
constexpr std::uint32_t kSectionMetrics = 6;
constexpr std::uint32_t kSectionTrace = 7;
constexpr std::uint32_t kSectionAdversary = 8;  // since v3; only when active
// since v4; only for density/drift workloads. Fingerprint, not state: the
// stream and eval windows rebuild from the embedded INI.
constexpr std::uint32_t kSectionWorkload = 9;
// since v5; only when a traffic timeline is active. Dynamic state only
// (live phases, queue occupancy, platoon membership, counters) — the
// timeline rebuilds from the embedded INI.
constexpr std::uint32_t kSectionTraffic = 10;

struct Frame {
  std::uint32_t version = 0;
  std::string file_bytes;  ///< backing storage for the section views
  std::map<std::uint32_t, std::string_view> sections;

  [[nodiscard]] util::BinReader section(std::uint32_t tag) const {
    auto it = sections.find(tag);
    if (it == sections.end()) {
      throw std::runtime_error{"checkpoint: snapshot is missing section " +
                               std::to_string(tag)};
    }
    return util::BinReader{it->second};
  }
  [[nodiscard]] bool has(std::uint32_t tag) const {
    return sections.count(tag) != 0;
  }
};

/// Fully validates an in-memory snapshot image: magic, version, CRC
/// trailer, section table. Every failure mode gets its own message so users
/// can tell "wrong file" from "corrupted file" from "produced by a newer
/// build". `path` is error-message context only.
Frame parse_frame(std::string image, const std::string& path) {
  Frame frame;
  frame.file_bytes = std::move(image);
  const std::string& bytes = frame.file_bytes;

  // magic(4) + version(4) + section count(4) + crc(4)
  if (bytes.size() < 16) {
    throw std::runtime_error{"checkpoint: truncated snapshot '" + path + "'"};
  }
  if (bytes.compare(0, 4, kMagic, 4) != 0) {
    throw std::runtime_error{"checkpoint: '" + path +
                             "' is not a roadrunner snapshot (bad magic)"};
  }

  util::BinReader header{std::string_view{bytes}.substr(4)};
  frame.version = header.u32();
  if (frame.version > kFormatVersion) {
    throw std::runtime_error{
        "checkpoint: '" + path + "' has format version " +
        std::to_string(frame.version) + " but this build supports up to " +
        std::to_string(kFormatVersion) + " — produced by a newer build?"};
  }

  const std::uint32_t stored_crc =
      util::BinReader{std::string_view{bytes}.substr(bytes.size() - 4)}.u32();
  const std::uint32_t actual_crc =
      util::crc32(bytes.data(), bytes.size() - 4);
  if (stored_crc != actual_crc) {
    throw std::runtime_error{"checkpoint: CRC mismatch in '" + path +
                             "' — snapshot is corrupted"};
  }

  const std::uint32_t section_count = header.u32();
  util::BinReader body{
      std::string_view{bytes}.substr(12, bytes.size() - 16)};
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint32_t tag = body.u32();
    const std::uint64_t size = body.u64();
    if (size > body.remaining()) {
      throw std::runtime_error{"checkpoint: truncated snapshot '" + path +
                               "' (section " + std::to_string(tag) +
                               " overruns the file)"};
    }
    const std::size_t offset = frame.file_bytes.size() - 4 - body.remaining();
    frame.sections[tag] =
        std::string_view{bytes}.substr(offset, size);
    body.sub(size);  // advance past the payload
  }
  return frame;
}

Frame read_frame(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::runtime_error{"checkpoint: cannot open '" + path + "'"};
  }
  // One sized read. file_size() fails on anything but a regular file (a
  // directory opens fine but has no byte size to read).
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::string bytes;
  if (!ec) bytes.resize(static_cast<std::size_t>(size));
  if (ec || !in.read(bytes.data(), static_cast<std::streamsize>(size))) {
    throw std::runtime_error{"checkpoint: cannot read '" + path + "'"};
  }
  return parse_frame(std::move(bytes), path);
}

/// The buffer save() assembles a snapshot in: one per thread, emptied but
/// not freed between saves, so each thread keeps the capacity of the
/// largest snapshot it has written and allocates only to outgrow it.
util::BinWriter& thread_frame() {
  thread_local util::BinWriter frame;
  frame.clear();
  return frame;
}

/// True when the simulator runs a workload the fingerprint section covers.
bool workload_fingerprinted(const core::Simulator& sim) {
  return sim.ml().density() || sim.ml().has_eval_windows();
}

void save_workload(const core::Simulator& sim, util::BinWriter& out) {
  const core::MlService& ml = sim.ml();
  out.u8(ml.density() ? 1 : 0);
  out.u64(ml.density_spec().components);
  out.u64(ml.density_spec().dims);
  const auto& windows = ml.eval_windows();
  out.u64(windows.size());
  for (const auto& w : windows) {
    out.f64(w.start_s);
    out.u64(w.data.size());
  }
}

/// Restore-side consistency guard: the rebuilt substrate must present the
/// same workload the snapshot's agent models were trained under. A mismatch
/// means a fork override changed the workload (or the build diverged) —
/// the saved GMM stats / eval series would silently mis-score, so reject.
void verify_workload(const core::Simulator& sim, util::BinReader& in,
                     const std::string& path) {
  const core::MlService& ml = sim.ml();
  const bool density = in.u8() != 0;
  const std::uint64_t components = in.u64();
  const std::uint64_t dims = in.u64();
  const std::uint64_t window_count = in.u64();
  bool ok = density == ml.density() &&
            (!density || (components == ml.density_spec().components &&
                          dims == ml.density_spec().dims)) &&
            window_count == ml.eval_windows().size();
  for (std::uint64_t i = 0; ok && i < window_count; ++i) {
    const double start_s = in.f64();
    const std::uint64_t size = in.u64();
    ok = start_s == ml.eval_windows()[i].start_s &&
         size == ml.eval_windows()[i].data.size();
  }
  if (!ok) {
    throw std::runtime_error{
        "checkpoint: '" + path +
        "' was saved under a different workload (objective family, GMM "
        "shape, or eval-window layout changed) — overrides must not alter "
        "the [workload] or [drift] configuration"};
  }
}

SnapshotInfo read_meta(const Frame& frame) {
  SnapshotInfo info;
  info.format_version = frame.version;
  util::BinReader meta = frame.section(kSectionMeta);
  info.sim_time_s = meta.f64();
  info.events_executed = meta.u64();
  info.pending_events = meta.u64();
  info.strategy_name = meta.str();
  info.seed = meta.u64();
  info.experiment_ini = frame.section(kSectionIni).str();
  return info;
}

/// Rebuilds the static substrate (fleet, dataset, partition, model,
/// strategy object) from an experiment description. Same INI + same seed
/// means a bit-identical substrate — the snapshot only carries the delta.
RestoredRun build_run(util::IniFile experiment) {
  RestoredRun run;
  run.experiment = std::move(experiment);
  run.scenario = std::make_shared<scenario::Scenario>(
      scenario::scenario_from_ini(run.experiment));
  run.strategy = scenario::strategy_from_ini(run.experiment);
  run.simulator = run.scenario->make_simulator();
  run.simulator->set_strategy(run.strategy);
  return run;
}

RestoredRun restore_impl(const std::string& path,
                         const std::map<std::string, std::string>& overrides) {
  RR_TSPAN("checkpoint", "checkpoint.restore");
  const Frame frame = read_frame(path);
  if (frame.version < kMinRestoreVersion) {
    // Pre-v2 payload layouts are gone from this build; peeking the meta
    // section still works, but a full restore would misparse.
    throw std::runtime_error{
        "checkpoint: '" + path + "' has format version " +
        std::to_string(frame.version) + " but this build restores only " +
        std::to_string(kMinRestoreVersion) + ".." +
        std::to_string(kFormatVersion) + " — re-run from the experiment INI"};
  }
  const SnapshotInfo info = read_meta(frame);

  util::IniFile experiment = util::IniFile::parse(info.experiment_ini);
  for (const auto& [dotted, value] : overrides) {
    const std::size_t dot = dotted.find('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 == dotted.size()) {
      throw std::runtime_error{
          "checkpoint: override key '" + dotted +
          "' must have the form section.key (e.g. network.v2c_loss)"};
    }
    experiment.set(dotted.substr(0, dot), dotted.substr(dot + 1), value);
  }

  RestoredRun run = build_run(std::move(experiment));
  if (run.strategy->name() != info.strategy_name) {
    throw std::runtime_error{
        "checkpoint: snapshot was taken under strategy '" +
        info.strategy_name + "' but the experiment now selects '" +
        run.strategy->name() +
        "' — overrides must not change the strategy"};
  }

  util::BinReader sim_section = frame.section(kSectionSim);
  SimulatorIo::restore_sim(*run.simulator, sim_section, frame.version);
  util::BinReader queue_section = frame.section(kSectionQueue);
  SimulatorIo::restore_queue(*run.simulator, queue_section);
  if (frame.has(kSectionAdversary)) {
    util::BinReader adversary_section = frame.section(kSectionAdversary);
    SimulatorIo::restore_adversary(*run.simulator, adversary_section);
  }
  if (frame.has(kSectionTraffic)) {
    if (!run.simulator->traffic().enabled()) {
      throw std::runtime_error{
          "checkpoint: '" + path +
          "' carries traffic state but the rebuilt experiment has no active "
          "traffic plan — overrides must not alter [traffic] or [platoon]"};
    }
    util::BinReader traffic_section = frame.section(kSectionTraffic);
    SimulatorIo::restore_traffic(*run.simulator, traffic_section);
  } else if (run.simulator->traffic().enabled()) {
    throw std::runtime_error{
        "checkpoint: '" + path +
        "' has no traffic section but the rebuilt experiment activates a "
        "traffic plan — overrides must not alter [traffic] or [platoon]"};
  }
  if (frame.has(kSectionWorkload)) {
    util::BinReader workload_section = frame.section(kSectionWorkload);
    verify_workload(*run.simulator, workload_section, path);
  } else if (workload_fingerprinted(*run.simulator)) {
    // The snapshot predates (or never had) a drift workload but the
    // rebuilt experiment selects one: only possible via fork overrides.
    throw std::runtime_error{
        "checkpoint: '" + path +
        "' has no workload fingerprint but the experiment now selects a "
        "density/drift workload — overrides must not alter [workload]"};
  }
  util::BinReader strategy_section = frame.section(kSectionStrategy);
  run.strategy->set_snapshot_version(frame.version);
  run.strategy->load_state(strategy_section);
  run.strategy->set_snapshot_version(UINT32_MAX);
  if (frame.has(kSectionMetrics)) {
    util::BinReader metrics_section = frame.section(kSectionMetrics);
    SimulatorIo::restore_metrics(*run.simulator, metrics_section);
  }
  if (frame.has(kSectionTrace)) {
    util::BinReader trace_section = frame.section(kSectionTrace);
    SimulatorIo::restore_trace(*run.simulator, trace_section);
  }

  RR_LOG_INFO("checkpoint")
      << "restored '" << path << "' at t=" << info.sim_time_s << "s ("
      << info.events_executed << " events executed, " << info.pending_events
      << " pending, strategy=" << info.strategy_name << ")";
  return run;
}

}  // namespace

void save(const core::Simulator& sim, const util::IniFile& experiment,
          const std::string& path) {
  RR_TSPAN("checkpoint", "checkpoint.save");

  // One pass into one buffer: each section is written in place behind its
  // tag and a u64 size placeholder, which is patched once the payload is
  // done; the section count is patched the same way.
  util::BinWriter& frame = thread_frame();
  frame.raw(kMagic, sizeof kMagic);
  frame.u32(kFormatVersion);
  const std::size_t count_at = frame.size();
  frame.u32(0);
  std::uint32_t count = 0;
  const auto add = [&](std::uint32_t tag, const auto& write) {
    frame.u32(tag);
    const std::size_t size_at = frame.size();
    frame.u64(0);
    write(sim, frame);
    frame.patch_u64(size_at, frame.size() - size_at - sizeof(std::uint64_t));
    ++count;
  };

  add(kSectionMeta, [](const core::Simulator& s, util::BinWriter& out) {
    out.f64(s.now());
    out.u64(SimulatorIo::executed_events(s));
    out.u64(SimulatorIo::pending_events(s));
    out.str(s.strategy() ? s.strategy()->name() : std::string{});
    out.u64(s.config().seed);
  });
  add(kSectionIni, [&](const core::Simulator&, util::BinWriter& out) {
    out.str(experiment.to_string());
  });
  add(kSectionSim, SimulatorIo::save_sim);
  add(kSectionQueue, SimulatorIo::save_queue);
  if (sim.adversary().enabled()) {
    add(kSectionAdversary, SimulatorIo::save_adversary);
  }
  if (workload_fingerprinted(sim)) {
    add(kSectionWorkload, save_workload);
  }
  if (sim.traffic().enabled()) {
    add(kSectionTraffic, SimulatorIo::save_traffic);
  }
  add(kSectionStrategy, [](const core::Simulator& s, util::BinWriter& out) {
    if (s.strategy()) s.strategy()->save_state(out);
  });
  add(kSectionMetrics, SimulatorIo::save_metrics);
  add(kSectionTrace, SimulatorIo::save_trace);

  frame.patch_u32(count_at, count);
  frame.u32(util::crc32(frame.buffer().data(), frame.size()));

  // Atomic + durable: a crash mid-save leaves either the old snapshot or
  // none, never a half-written one; the rename is fsync'd into the
  // directory so it survives power loss.
  namespace fs = std::filesystem;
  const fs::path target{path};
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path());
  }
  const std::string tmp = path + ".tmp";
  {
    RR_TSPAN("checkpoint", "checkpoint.write");
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) {
      throw std::runtime_error{"checkpoint: cannot write '" + tmp + "'"};
    }
    out.write(frame.buffer().data(),
              static_cast<std::streamsize>(frame.buffer().size()));
    if (!out) {
      throw std::runtime_error{"checkpoint: short write to '" + tmp + "'"};
    }
  }
  RR_TSPAN("checkpoint", "checkpoint.sync");
  util::sync_file(tmp);
  fs::rename(tmp, target);
  util::sync_dir(target.has_parent_path() ? target.parent_path().string()
                                          : std::string{"."});
}

scenario::RunResult RestoredRun::finish() {
  const std::string name = strategy->name();
  core::Simulator::RunReport report = simulator->run();
  return scenario::Scenario::collect_result(*simulator, name, report);
}

RestoredRun restore(const std::string& path) { return restore_impl(path, {}); }

RestoredRun fork(const std::string& path,
                 const std::map<std::string, std::string>& overrides) {
  return restore_impl(path, overrides);
}

SnapshotInfo peek(const std::string& path) {
  return read_meta(read_frame(path));
}

SnapshotInfo peek_bytes(const std::string& image) {
  return read_meta(parse_frame(image, "<memory>"));
}

scenario::RunResult run_resumable(const util::IniFile& experiment,
                                  const std::string& ckpt_path,
                                  double every_s) {
  const double period =
      every_s > 0.0
          ? every_s
          : experiment.get_double("scenario", "checkpoint_every_s", 0.0);

  const auto install_autosave = [&](core::Simulator& sim,
                                    util::IniFile ini) {
    if (period <= 0.0) return;
    sim.set_autosave(period,
                     [ini = std::move(ini), ckpt_path](core::Simulator& s) {
                       save(s, ini, ckpt_path);
                     });
  };

  if (std::filesystem::exists(ckpt_path)) {
    RestoredRun run = restore(ckpt_path);
    install_autosave(*run.simulator, run.experiment);
    return run.finish();
  }

  RestoredRun run = build_run(experiment);
  install_autosave(*run.simulator, run.experiment);
  return run.finish();
}

}  // namespace roadrunner::checkpoint
