#include "checkpoint/checkpoint.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
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

struct Frame {
  std::uint32_t version = 0;
  std::string file_bytes;  ///< backing storage for the section views
  std::map<std::uint32_t, std::string_view> sections;
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

/// Reads each of `rows` that `frame` holds into `snapshot`, in table order;
/// a row the frame lacks runs its `absent` rule instead.
void read_sections(const Frame& frame, Snapshot& snapshot,
                   std::span<const Section> rows) {
  for (const Section& row : rows) {
    const auto it = frame.sections.find(row.tag);
    if (it == frame.sections.end()) {
      row.absent(snapshot);
      continue;
    }
    util::BinReader in{it->second};
    util::ArchiveReader ar{in, row.context, frame.version};
    row.read(ar, snapshot);
  }
}

/// The meta and ini sections: the first two rows, which need no simulator.
SnapshotInfo read_meta(const Frame& frame, const std::string& path) {
  SnapshotInfo info;
  info.format_version = frame.version;
  Snapshot snapshot{info, nullptr, path};
  read_sections(frame, snapshot, SimulatorIo::sections().first(2));
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
  SnapshotInfo info = read_meta(frame, path);

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
  Snapshot snapshot{info, run.simulator.get(), path};
  read_sections(frame, snapshot, SimulatorIo::sections().subspan(2));

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
  SnapshotInfo info{kFormatVersion,
                    sim.now(),
                    SimulatorIo::executed_events(sim),
                    SimulatorIo::pending_events(sim),
                    sim.strategy() ? sim.strategy()->name() : std::string{},
                    sim.config().seed,
                    experiment.to_string()};
  // The visitors serve restore too, so they take the simulator mutable;
  // the writer only reads through it.
  Snapshot snapshot{info, const_cast<core::Simulator*>(&sim), path};
  util::ArchiveWriter ar{frame};
  for (const Section& row : SimulatorIo::sections()) {
    if (!row.written(sim)) continue;
    frame.u32(row.tag);
    const std::size_t size_at = frame.size();
    frame.u64(0);
    row.write(ar, snapshot);
    frame.patch_u64(size_at, frame.size() - size_at - sizeof(std::uint64_t));
    ++count;
  }

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
  return read_meta(read_frame(path), path);
}

SnapshotInfo peek_bytes(const std::string& image) {
  return read_meta(parse_frame(image, "<memory>"), "<memory>");
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
