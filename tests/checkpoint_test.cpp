// Checkpoint/restore subsystem tests: golden determinism, mid-run
// snapshot round trips (the acceptance bar: a resumed run is
// bit-identical to an uninterrupted one), corruption rejection, what-if
// forks, the one-pass writer against a naive assembly of the same format,
// and the model table (format v6) against hostile images.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/checkpoint.hpp"
#include "checkpoint/sim_io.hpp"
#include "core/agent.hpp"
#include "core/event_queue.hpp"
#include "core/sim_event.hpp"
#include "crc32_reference.hpp"
#include "ml/serialize.hpp"
#include "scenario/experiment.hpp"
#include "strategy/learning_strategy.hpp"
#include "util/archive.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace roadrunner {
namespace {

namespace fs = std::filesystem;

std::string test_ini(const std::string& strategy) {
  return R"([scenario]
vehicles = 10
seed = 11
horizon_s = 900
trace_events = true
[city]
duration_s = 900
[data]
dataset = blobs
train_pool = 600
test_size = 120
partition = iid
samples_per_vehicle = 40
[train]
model = logreg
epochs = 1
[strategy]
name = )" + strategy +
         R"(
rounds = 4
participants = 3
round_duration_s = 120
)";
}

struct RunDigest {
  std::string trace_csv;
  std::string metrics_csv;
  std::uint64_t events = 0;
  double end_time = 0.0;
};

RunDigest digest(const core::Simulator& sim,
                 const core::Simulator::RunReport& report) {
  RunDigest d;
  std::ostringstream trace;
  sim.trace().export_csv(trace);
  d.trace_csv = trace.str();
  std::ostringstream metrics;
  sim.metrics_view().export_csv(metrics);
  d.metrics_csv = metrics.str();
  d.events = report.events_executed;
  d.end_time = report.sim_end_time_s;
  return d;
}

/// Runs `ini` start to finish; optionally snapshots once at the first
/// autosave tick (`snap_path` non-empty) and keeps running to the end.
RunDigest run_full(const util::IniFile& ini, const std::string& snap_path = {},
                   double snap_at_every_s = 150.0) {
  scenario::Scenario scn{scenario::scenario_from_ini(ini)};
  auto strategy = scenario::strategy_from_ini(ini);
  auto sim = scn.make_simulator();
  sim->set_strategy(strategy);
  bool saved = false;
  if (!snap_path.empty()) {
    sim->set_autosave(snap_at_every_s, [&](core::Simulator& s) {
      if (saved) return;
      saved = true;
      checkpoint::save(s, ini, snap_path);
    });
  }
  const auto report = sim->run();
  if (!snap_path.empty()) {
    EXPECT_TRUE(saved);
  }
  return digest(*sim, report);
}

fs::path tmp_file(const std::string& name) {
  return fs::temp_directory_path() / name;
}

std::string slurp(const fs::path& p) {
  std::ifstream in{p, std::ios::binary};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const fs::path& p, const std::string& bytes) {
  std::ofstream out{p, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Recomputes the CRC trailer after a deliberate edit, so only the checks
/// behind the CRC can reject the image.
void reseal(std::string& image) {
  const std::uint32_t crc = util::crc32(image.data(), image.size() - 4);
  for (std::size_t i = 0; i < 4; ++i) {
    image[image.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
}

// ------------------------------------------------------ rng state ---------

TEST(RngState, RoundTripReproducesTheExactStream) {
  util::Rng a{42};
  for (int i = 0; i < 1000; ++i) a.next();
  const auto snap = a.state();
  util::Rng b{7};  // different seed, then overwritten
  b.set_state(snap);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngState, AllZeroStateIsRejected) {
  util::Rng r{1};
  EXPECT_THROW(r.set_state({0, 0, 0, 0}), std::invalid_argument);
}

// ------------------------------------------------- golden determinism ----

TEST(CheckpointDeterminism, IdenticalRerunsProduceIdenticalTraces) {
  const auto ini = util::IniFile::parse(test_ini("federated"));
  const RunDigest first = run_full(ini);
  const RunDigest second = run_full(ini);
  EXPECT_FALSE(first.trace_csv.empty());
  EXPECT_EQ(first.trace_csv, second.trace_csv);
  EXPECT_EQ(first.metrics_csv, second.metrics_csv);
  EXPECT_EQ(first.events, second.events);
}

// --------------------------------------------------- mid-run round trip --

class CheckpointRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(CheckpointRoundTrip, RestoredRunMatchesUninterruptedRun) {
  const std::string strategy = GetParam();
  const auto ini = util::IniFile::parse(test_ini(strategy));
  const fs::path snap = tmp_file("rr_roundtrip_" + strategy + ".rrck");
  fs::remove(snap);

  const RunDigest uninterrupted = run_full(ini);
  // The snapshotting run itself must match too: autosaves fire between
  // events and may not perturb the simulation.
  const RunDigest snapshotting = run_full(ini, snap.string());
  EXPECT_EQ(uninterrupted.trace_csv, snapshotting.trace_csv);
  EXPECT_EQ(uninterrupted.metrics_csv, snapshotting.metrics_csv);

  ASSERT_TRUE(fs::exists(snap));
  const auto info = checkpoint::peek(snap.string());
  EXPECT_EQ(info.format_version, checkpoint::kFormatVersion);
  EXPECT_EQ(info.strategy_name, strategy);
  EXPECT_GT(info.sim_time_s, 0.0);
  EXPECT_LT(info.sim_time_s, uninterrupted.end_time);
  EXPECT_GT(info.pending_events, 0U);

  // Resume from the mid-run snapshot and run to the end: the acceptance
  // bar is full equality of the event trace and metrics.
  checkpoint::RestoredRun resumed = checkpoint::restore(snap.string());
  EXPECT_TRUE(resumed.simulator->restored());
  const auto report = resumed.simulator->run();
  const RunDigest after = digest(*resumed.simulator, report);
  EXPECT_EQ(uninterrupted.trace_csv, after.trace_csv);
  EXPECT_EQ(uninterrupted.metrics_csv, after.metrics_csv);
  EXPECT_EQ(uninterrupted.events, after.events);
  EXPECT_DOUBLE_EQ(uninterrupted.end_time, after.end_time);
  fs::remove(snap);
}

INSTANTIATE_TEST_SUITE_P(Strategies, CheckpointRoundTrip,
                         ::testing::Values("federated", "opportunistic",
                                           "gossip"));

TEST(CheckpointResume, RunResumablePicksUpFromSnapshot) {
  const auto ini = util::IniFile::parse(test_ini("federated"));
  const fs::path snap = tmp_file("rr_resumable.rrck");
  fs::remove(snap);

  const RunDigest uninterrupted = run_full(ini);
  run_full(ini, snap.string());  // leaves a mid-run snapshot behind
  ASSERT_TRUE(fs::exists(snap));

  // A "crashed" campaign job rerun: run_resumable finds the snapshot and
  // continues instead of starting over. Final metrics must match.
  const scenario::RunResult resumed =
      checkpoint::run_resumable(ini, snap.string());
  const scenario::RunResult fresh = scenario::run_experiment(ini);
  EXPECT_DOUBLE_EQ(resumed.final_accuracy, fresh.final_accuracy);
  EXPECT_EQ(resumed.report.events_executed, fresh.report.events_executed);
  std::ostringstream a, b;
  resumed.metrics.export_csv(a);
  fresh.metrics.export_csv(b);
  EXPECT_EQ(a.str(), b.str());
  fs::remove(snap);
}

// ----------------------------------------------------------- rejection ---

class CheckpointRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    ini_ = util::IniFile::parse(test_ini("federated"));
    // One file per test: ctest -j runs each discovered test in its own
    // process, so a shared name races.
    snap_ = tmp_file(
        std::string{"rr_reject_"} +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".rrck");
    fs::remove(snap_);
    run_full(ini_, snap_.string());
    ASSERT_TRUE(fs::exists(snap_));
    bytes_ = slurp(snap_);
    ASSERT_GT(bytes_.size(), 32U);
  }
  void TearDown() override { fs::remove(snap_); }

  void expect_throw_containing(const std::string& needle) {
    try {
      checkpoint::restore(snap_.string());
      FAIL() << "expected restore to throw (" << needle << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
          << "actual message: " << e.what();
    }
  }

  util::IniFile ini_;
  fs::path snap_;
  std::string bytes_;
};

TEST_F(CheckpointRejection, BadMagic) {
  std::string bad = bytes_;
  bad[0] = 'X';
  spit(snap_, bad);
  expect_throw_containing("bad magic");
}

TEST_F(CheckpointRejection, FlippedByteFailsCrc) {
  std::string bad = bytes_;
  bad[bytes_.size() / 2] ^= 0x5A;
  spit(snap_, bad);
  expect_throw_containing("CRC");
}

TEST_F(CheckpointRejection, TruncationFailsCrc) {
  spit(snap_, bytes_.substr(0, bytes_.size() - 17));
  expect_throw_containing("");  // truncated or CRC, either way it throws
}

TEST_F(CheckpointRejection, TinyFileIsTruncated) {
  spit(snap_, bytes_.substr(0, 8));
  expect_throw_containing("truncated");
}

TEST_F(CheckpointRejection, FutureFormatVersionIsRejected) {
  // Bump the version field (bytes 4..7, little-endian) and re-seal the CRC
  // so only the version check can fire.
  std::string bad = bytes_;
  bad[4] = 99;
  reseal(bad);
  spit(snap_, bad);
  expect_throw_containing("version");
}

TEST_F(CheckpointRejection, FutureVersionWithUnknownSectionIsAVersionError) {
  // Forward-compat contract, pinned: a snapshot of the next format version
  // carrying a section tag this build has never heard of must be refused
  // with the *version* message ("produced by a newer build?"), not
  // misparsed via the unknown-tags-are-ignored rule — that rule only
  // licenses skipping unknown sections within a version we claim to
  // support.
  std::string bad = bytes_;
  // The version field, bytes 4..7 little-endian.
  bad[4] = static_cast<char>(checkpoint::kFormatVersion + 1);
  // Append an unknown trailing section (tag 200, 4-byte payload) ahead of
  // the CRC trailer and bump the section count at bytes 8..11.
  std::string section;
  const std::uint32_t tag = 200;
  const std::uint64_t payload_size = 4;
  for (int i = 0; i < 4; ++i) {
    section += static_cast<char>((tag >> (8 * i)) & 0xFF);
  }
  for (int i = 0; i < 8; ++i) {
    section += static_cast<char>((payload_size >> (8 * i)) & 0xFF);
  }
  section += "\xDE\xAD\xBE\xEF";
  bad.insert(bad.size() - 4, section);
  ++bad[8];  // section counts are tiny; no carry possible
  reseal(bad);
  spit(snap_, bad);
  expect_throw_containing("version");
  // The in-memory peek validates identically.
  try {
    checkpoint::peek_bytes(bad);
    FAIL() << "expected peek_bytes to reject a future-version image";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("version"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointRejection, PeekValidatesToo) {
  std::string bad = bytes_;
  bad[bytes_.size() / 3] ^= 0x11;
  spit(snap_, bad);
  EXPECT_THROW(checkpoint::peek(snap_.string()), std::runtime_error);
}

TEST(CheckpointEncounters, TamperedListIsRejected) {
  // Snapshot a gossip run on a small city at the first tick with three or
  // more agent pairs in range; the event trace tells which pairs are active
  // at that instant.
  auto ini = util::IniFile::parse(test_ini("gossip"));
  ini.set("city", "size_m", "600");
  const fs::path snap = tmp_file("rr_reject_encounters.rrck");
  fs::remove(snap);
  std::vector<std::pair<core::AgentId, core::AgentId>> active;
  {
    scenario::Scenario scn{scenario::scenario_from_ini(ini)};
    auto sim = scn.make_simulator();
    sim->set_strategy(scenario::strategy_from_ini(ini));
    sim->set_autosave(1.0, [&](core::Simulator& s) {
      if (!active.empty()) return;
      std::set<std::pair<core::AgentId, core::AgentId>> pairs;
      for (const core::TraceEvent& e : s.trace().events()) {
        if (e.kind == core::TraceKind::kEncounterBegin) pairs.emplace(e.a, e.b);
        if (e.kind == core::TraceKind::kEncounterEnd) pairs.erase({e.a, e.b});
      }
      if (pairs.size() < 3) return;
      active.assign(pairs.begin(), pairs.end());
      checkpoint::save(s, ini, snap.string());
    });
    (void)sim->run();
  }
  ASSERT_GE(active.size(), 3U);

  // Locate the list (a u64 count, then u64 pairs) inside the sim section.
  util::BinWriter list;
  list.u64(active.size());
  for (const auto& [a, b] : active) {
    list.u64(a);
    list.u64(b);
  }
  const std::string needle = list.take();
  const std::string bytes = slurp(snap);
  const std::size_t at = bytes.find(needle);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(needle, at + 1), std::string::npos);
  const auto pair_at = [&](std::size_t k) { return at + 8 + 16 * k; };

  // The untampered list, re-sealed, still restores.
  std::string same = bytes;
  reseal(same);
  spit(snap, same);
  EXPECT_NO_THROW((void)checkpoint::restore(snap.string()));

  const auto u64_bytes = [](std::uint64_t v) {
    util::BinWriter w;
    w.u64(v);
    return w.take();
  };
  const auto [a0, b0] = active[0];
  const std::vector<std::pair<std::string, std::string>> cases = {
      // Out of order: the first two pairs swapped.
      {"swapped", bytes.substr(pair_at(1), 16) + bytes.substr(pair_at(0), 16)},
      // A duplicate: the second pair repeats the first.
      {"duplicate", bytes.substr(pair_at(0), 16) + bytes.substr(pair_at(0), 16)},
      // a == b, a > b, and b past the agent count.
      {"self", u64_bytes(a0) + u64_bytes(a0)},
      {"reversed", u64_bytes(b0) + u64_bytes(a0)},
      {"out of range", u64_bytes(a0) + u64_bytes(1'000'000)},
  };
  for (const auto& [name, patch] : cases) {
    std::string bad = bytes;
    bad.replace(pair_at(0), patch.size(), patch);
    reseal(bad);
    spit(snap, bad);
    try {
      (void)checkpoint::restore(snap.string());
      ADD_FAILURE() << name << ": restore accepted a bad encounter list";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find("sim section"), std::string::npos)
          << name << ": " << e.what();
    }
  }
  fs::remove(snap);
}

// Tampered fields behind a valid CRC: each must fail as a
// std::runtime_error naming its section, never index past the agent table
// or allocate what a count claims.
namespace tamper {

constexpr std::uint32_t kSim = 3;
constexpr std::uint32_t kQueue = 4;
constexpr std::uint32_t kStrategy = 5;
constexpr std::uint32_t kTrace = 7;

/// Offset and size of section `tag`'s payload in a snapshot image.
std::pair<std::size_t, std::size_t> find_section(const std::string& image,
                                                 std::uint32_t tag) {
  util::BinReader in{image};
  (void)in.u32();  // magic
  (void)in.u32();  // version
  const std::uint32_t count = in.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t t = in.u32();
    const std::uint64_t size = in.u64();
    const std::size_t at = image.size() - in.remaining();
    if (t == tag) return {at, size};
    (void)in.sub(size);
  }
  ADD_FAILURE() << "no section " << tag;
  return {0, 0};
}

std::string payload(const std::string& image, std::uint32_t tag) {
  const auto [at, size] = find_section(image, tag);
  return image.substr(at, size);
}

constexpr std::uint32_t kModels = 11;

/// The image's model table, decoded, for reading its other sections.
ml::ModelTableView models(const std::string& image) {
  return {payload(image, kModels), "test"};
}

/// `image` with section `tag`'s payload replaced (size field included) and
/// the CRC trailer resealed.
std::string with_payload(std::string image, std::uint32_t tag,
                         const std::string& bytes) {
  const auto [at, size] = find_section(image, tag);
  image.replace(at, size, bytes);
  util::BinWriter len;
  len.u64(bytes.size());
  image.replace(at - 8, 8, len.buffer());
  reseal(image);
  return image;
}

std::string u64_bytes(std::uint64_t v) {
  util::BinWriter w;
  w.u64(v);
  return w.take();
}

/// A temp file of this test's own: ctest runs the tests in parallel.
fs::path test_file(const std::string& suffix) {
  return tmp_file(
      std::string{"rr_tamper_"} +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      suffix + ".rrck");
}

/// Every autosave image of a run of `test_ini(strategy)` with `extra`
/// sections appended.
std::vector<std::string> autosaves(double every_s,
                                   const std::string& strategy = "federated",
                                   const std::string& extra = "") {
  const auto ini = util::IniFile::parse(test_ini(strategy) + extra);
  const fs::path path = test_file("source");
  std::vector<std::string> images;
  scenario::Scenario scn{scenario::scenario_from_ini(ini)};
  auto sim = scn.make_simulator();
  sim->set_strategy(scenario::strategy_from_ini(ini));
  sim->set_autosave(every_s, [&](core::Simulator& s) {
    checkpoint::save(s, ini, path.string());
    images.push_back(slurp(path));
  });
  (void)sim->run();
  fs::remove(path);
  return images;
}

/// Offsets of `image`'s queue entries within the queue section's payload,
/// with their events, found by reading the payload with the queue's own
/// field lists against the image's model table.
std::vector<std::pair<std::size_t, core::SimEvent>> queue_entries(
    const std::string& image) {
  const std::string queue = payload(image, kQueue);
  const ml::ModelTableView table = models(image);
  util::BinReader in{queue};
  in.set_models(&table);
  util::ArchiveReader ar{in, "test"};
  std::uint64_t next_seq = 0;
  std::uint64_t executed = 0;
  double now = 0.0;
  ar(next_seq, executed, now);
  std::vector<std::pair<std::size_t, core::SimEvent>> entries;
  for (std::uint64_t i = 0, n = in.u64(); i < n; ++i) {
    const std::size_t at = queue.size() - in.remaining();
    core::BasicEventQueue<core::SimEvent>::Entry entry;
    ar(entry);
    entries.emplace_back(at, std::move(entry.payload));
  }
  return entries;
}

// Within a queue entry: at (8), seq (8), kind (1), then the event's agent
// and tag; a kDeliver's message follows tag, duration and data amount (24).
constexpr std::size_t kEventAgent = 17;
constexpr std::size_t kEventTag = kEventAgent + 8;
constexpr std::size_t kMessageFrom = kEventAgent + 8 + 24;

void expect_rejected(const std::string& image, const std::string& section,
                     const std::string& needle) {
  const fs::path path = test_file("tampered");
  spit(path, image);
  try {
    (void)checkpoint::restore(path.string());
    ADD_FAILURE() << section << ": restore accepted a tampered " << needle;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(section + " section"), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
  fs::remove(path);
}

}  // namespace tamper

TEST(CheckpointTamper, OutOfRangeSenderIsRejected) {
  for (const std::string& image : tamper::autosaves(5.0)) {
    const std::string queue = tamper::payload(image, tamper::kQueue);
    for (const auto& [at, ev] : tamper::queue_entries(image)) {
      if (ev.kind != core::SimEventKind::kDeliver) continue;
      std::string bad = queue;
      bad.replace(at + tamper::kMessageFrom, 8, tamper::u64_bytes(1 << 20));
      tamper::expect_rejected(
          tamper::with_payload(image, tamper::kQueue, bad), "queue",
          "message sender 1048576");
      return;
    }
  }
  FAIL() << "no autosave has a message in flight";
}

TEST(CheckpointTamper, OutOfRangeEventAgentIsRejected) {
  const std::string image = tamper::autosaves(150.0).front();
  const std::string queue = tamper::payload(image, tamper::kQueue);
  for (const auto& [at, ev] : tamper::queue_entries(image)) {
    if (ev.agent == core::kNoAgent) continue;
    std::string bad = queue;
    bad.replace(at + tamper::kEventAgent, 8, tamper::u64_bytes(1 << 20));
    tamper::expect_rejected(tamper::with_payload(image, tamper::kQueue, bad),
                            "queue", "event agent 1048576");
    return;
  }
  FAIL() << "no pending event names an agent";
}

/// A vehicle crash, a signalized intersection and a platoon: their events
/// carry an index into the fault plan or the traffic timeline.
constexpr const char* kIndexedEvents = R"(
[fault.0]
kind = vehicle_crash
vehicle = 2
at_s = 450
reboot_after_s = 60
[traffic]
regime = platooned
[traffic.0]
gx = 1
gy = 1
[platoon]
count = 1
size = 3
join_probability = 1.0
leave_probability = 1.0
split_probability = 1.0
)";

/// Sets the tag of the first pending `kind` event to `tag` and expects the
/// restore to fail naming `needle`.
void expect_tag_rejected(core::SimEventKind kind, std::int64_t tag,
                         const std::string& needle) {
  const std::string image =
      tamper::autosaves(150.0, "federated", kIndexedEvents).front();
  const std::string queue = tamper::payload(image, tamper::kQueue);
  for (const auto& [at, ev] : tamper::queue_entries(image)) {
    if (ev.kind != kind) continue;
    std::string bad = queue;
    util::BinWriter w;
    w.i64(tag);
    bad.replace(at + tamper::kEventTag, 8, w.buffer());
    tamper::expect_rejected(tamper::with_payload(image, tamper::kQueue, bad),
                            "queue", needle);
    return;
  }
  FAIL() << "no pending event of kind " << static_cast<int>(kind);
}

TEST(CheckpointTamper, OutOfRangeCrashPlanIndexIsRejected) {
  expect_tag_rejected(core::SimEventKind::kFaultCrash, 1 << 20,
                      "crash event's fault plan index 1048576");
  expect_tag_rejected(core::SimEventKind::kFaultCrash, -1,
                      "crash event's fault plan index -1");
}

TEST(CheckpointTamper, OutOfRangeSignalPhaseIndexIsRejected) {
  expect_tag_rejected(core::SimEventKind::kSignalPhase, 1 << 20,
                      "signal phase index 1048576");
}

TEST(CheckpointTamper, OutOfRangePlatoonManeuverIndexIsRejected) {
  expect_tag_rejected(core::SimEventKind::kPlatoonManeuver, 1 << 20,
                      "platoon maneuver index 1048576");
}

TEST(CheckpointTamper, OutOfRangeStrategyAgentIsRejected) {
  // Round-based state: round (8), the global model (a u32 model-table
  // index), then the selected set's count and ids.
  {
    const std::string image = tamper::autosaves(150.0).front();
    std::string strategy = tamper::payload(image, tamper::kStrategy);
    const std::size_t at = 8 + 4 + 8;
    util::BinReader count{std::string_view{strategy}.substr(at - 8)};
    ASSERT_GE(count.u64(), 1U)
        << "no vehicle selected at the autosave";
    strategy.replace(at, 8, tamper::u64_bytes(1 << 20));
    tamper::expect_rejected(
        tamper::with_payload(image, tamper::kStrategy, strategy), "strategy",
        "agent id 1048576");
  }
  // Gossip state: last-merge map (count, then id and time pairs), then the
  // probe list's count and ids.
  {
    const std::string image = tamper::autosaves(150.0, "gossip").front();
    std::string strategy = tamper::payload(image, tamper::kStrategy);
    util::BinReader in{strategy};
    const std::size_t at = 8 + 16 * in.u64() + 8;
    util::BinReader count{std::string_view{strategy}.substr(at - 8)};
    ASSERT_GE(count.u64(), 1U)
        << "no probe at the autosave";
    strategy.replace(at, 8, tamper::u64_bytes(1 << 20));
    tamper::expect_rejected(
        tamper::with_payload(image, tamper::kStrategy, strategy), "strategy",
        "agent id 1048576");
  }
}

TEST(CheckpointTamper, RetiredEventKindIsRejected) {
  // Kind byte 5 was a closure computation, which no snapshot could hold.
  const std::string image = tamper::autosaves(150.0).front();
  std::string queue = tamper::payload(image, tamper::kQueue);
  const auto entries = tamper::queue_entries(image);
  ASSERT_FALSE(entries.empty());
  queue[entries.front().first + tamper::kEventAgent - 1] = 5;
  tamper::expect_rejected(tamper::with_payload(image, tamper::kQueue, queue),
                          "queue", "bad event kind");
}

TEST(CheckpointTamper, BadBacklogKeyIsRejected) {
  // The sim section ends with the send backlog's count; an idle backlog
  // gains one entry with a bad key (sender or channel) and no messages.
  const std::string image = tamper::autosaves(150.0).front();
  const std::string sim = tamper::payload(image, tamper::kSim);
  ASSERT_EQ(sim.substr(sim.size() - 8), tamper::u64_bytes(0));
  const auto backlog = [&](std::uint64_t sender, std::uint8_t channel) {
    util::BinWriter w;
    w.u64(1);
    w.u64(sender);
    w.u8(channel);
    w.u64(0);
    return tamper::with_payload(image, tamper::kSim,
                                sim.substr(0, sim.size() - 8) + w.buffer());
  };
  // The splice itself is well-formed: a valid key restores.
  const fs::path path = tamper::test_file("spliced");
  spit(path, backlog(0, 0));
  EXPECT_NO_THROW((void)checkpoint::restore(path.string()));
  fs::remove(path);
  tamper::expect_rejected(backlog(1 << 20, 0), "sim", "sender 1048576");
  tamper::expect_rejected(backlog(0, 7), "sim", "bad channel kind");
}

TEST(CheckpointTamper, BadTraceKindIsRejected) {
  const std::string image = tamper::autosaves(150.0).front();
  std::string trace = tamper::payload(image, tamper::kTrace);
  ASSERT_GT(trace.size(), 17U);
  trace[8 + 8] = static_cast<char>(0xEE);  // count, time_s, then the kind
  tamper::expect_rejected(tamper::with_payload(image, tamper::kTrace, trace),
                          "trace", "bad trace kind");
}

TEST(CheckpointTamper, HugeCountIsRejectedBeforeAllocation) {
  // Agent 0's data-index count: after the agent count, its model (a u32
  // model-table index), data amount, update time and training flag.
  const std::string image = tamper::autosaves(150.0).front();
  std::string sim = tamper::payload(image, tamper::kSim);
  const std::size_t at = 8 + 4 + 8 + 8 + 1;
  sim.replace(at, 8, tamper::u64_bytes(std::uint64_t{1} << 40));
  tamper::expect_rejected(tamper::with_payload(image, tamper::kSim, sim),
                          "sim", "count 1099511627776 exceeds");
}

/// `image` without section `tag`, the section count lowered and the CRC
/// trailer resealed.
std::string without_section(std::string image, std::uint32_t tag) {
  const auto [at, size] = tamper::find_section(image, tag);
  image.erase(at - 12, 12 + size);  // tag (4), size (8), payload
  util::BinWriter count;
  count.u32(util::BinReader{std::string_view{image}.substr(8)}.u32() - 1);
  image.replace(8, 4, count.buffer());
  reseal(image);
  return image;
}

TEST(CheckpointModelTable, IndexPastTheTableIsRejected) {
  // Agent 0's model is the sim section's first field after the agent count.
  const std::string image = tamper::autosaves(150.0).front();
  std::string sim = tamper::payload(image, tamper::kSim);
  util::BinWriter index;
  index.u32(1 << 20);
  sim.replace(8, 4, index.buffer());
  tamper::expect_rejected(tamper::with_payload(image, tamper::kSim, sim),
                          "sim", "model index 1048576 is past the model table");
}

TEST(CheckpointModelTable, ReferenceWithoutATableIsRejected) {
  const std::string image = tamper::autosaves(150.0).front();
  tamper::expect_rejected(without_section(image, tamper::kModels), "sim",
                          "no model table");
}

TEST(CheckpointModelTable, EntryOverrunningTheSectionIsRejected) {
  // The table: a u64 entry count, then each entry's u64 length and bytes.
  const std::string image = tamper::autosaves(150.0).front();
  std::string table = tamper::payload(image, tamper::kModels);
  ASSERT_GE(util::BinReader{table}.u64(), 1U);
  table.replace(8, 8, tamper::u64_bytes(table.size()));
  tamper::expect_rejected(
      tamper::with_payload(image, tamper::kModels, table), "model table",
      "entry 0 overruns the section");
}

TEST(CheckpointModelTable, EntryThatIsNotAModelIsRejected) {
  // Entry 0's first tensor has rank 99, which no weights encoding holds.
  const std::string image = tamper::autosaves(150.0).front();
  std::string table = tamper::payload(image, tamper::kModels);
  util::BinReader in{table};
  ASSERT_GE(in.u64(), 1U);
  ASSERT_GE(in.u64(), 8U) << "entry 0 holds no tensor";
  util::BinWriter rank;
  rank.u32(99);
  table.replace(8 + 8 + 4, 4, rank.buffer());
  tamper::expect_rejected(
      tamper::with_payload(image, tamper::kModels, table), "model table",
      "entry 0 is not a model");
}

namespace agent_data {

/// One vehicle's field list whose data view holds `index` of a dense
/// dataset of `samples` samples.
std::string saved_vehicle(std::uint32_t index, std::size_t samples) {
  auto dense = std::make_shared<const ml::Dataset>(
      ml::Tensor{{samples, 1}}, std::vector<std::int32_t>(samples, 0), 1);
  core::Agent agent{0, core::AgentKind::kVehicle, 0, hu::obu_device()};
  agent.data = ml::DatasetView{dense, {index}};
  util::BinWriter out;
  util::ArchiveWriter ar{out};
  agent.fields(ar, nullptr);
  return out.buffer();
}

/// Restores `image` into a vehicle whose dataset has 4 samples of which
/// only 0 and 2 are rendered (what the image scenario builds).
void restore_vehicle(const std::string& image) {
  constexpr std::uint32_t kHole = ml::Dataset::kUnrendered;
  auto sparse = std::make_shared<const ml::Dataset>(
      ml::Tensor{{2, 1}}, std::vector<std::int32_t>(4, 0), 1,
      std::vector<std::uint32_t>{0, kHole, 1, kHole});
  core::Agent agent{0, core::AgentKind::kVehicle, 0, hu::obu_device()};
  agent.data = ml::DatasetView{sparse, {0}};
  util::BinReader in{image};
  util::ArchiveReader ar{in, "checkpoint: sim section"};
  agent.fields(ar, nullptr);
  EXPECT_EQ(agent.data.base_ptr(), sparse);
}

void expect_data_index_rejected(std::uint32_t index, std::size_t samples) {
  try {
    restore_vehicle(saved_vehicle(index, samples));
    ADD_FAILURE() << "index " << index << " restored";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "checkpoint: data index out of range in snapshot");
  }
}

}  // namespace agent_data

TEST(CheckpointTamper, DataIndexPastTheDatasetIsRejected) {
  agent_data::restore_vehicle(agent_data::saved_vehicle(2, 8));
  agent_data::expect_data_index_rejected(4, 8);
}

TEST(CheckpointTamper, UnrenderedDataIndexIsRejected) {
  agent_data::expect_data_index_rejected(1, 4);
  agent_data::expect_data_index_rejected(3, 4);
}

TEST(CheckpointErrors, MissingFileThrows) {
  EXPECT_THROW(checkpoint::restore("/nonexistent/nope.rrck"),
               std::runtime_error);
}

TEST(CheckpointErrors, DirectoryIsNotASnapshot) {
  const std::string dir = fs::temp_directory_path().string();
  EXPECT_THROW(checkpoint::peek(dir), std::runtime_error);
  EXPECT_THROW(checkpoint::restore(dir), std::runtime_error);
}

// ---------------------------------------------------------------- forks --

TEST(CheckpointFork, OverridesApplyFromTheSavedInstant) {
  const auto ini = util::IniFile::parse(test_ini("federated"));
  const fs::path snap = tmp_file("rr_fork.rrck");
  fs::remove(snap);
  run_full(ini, snap.string());
  ASSERT_TRUE(fs::exists(snap));

  // Degrade the uplink from the snapshot instant on: the fork must still
  // complete, and its config must reflect the override.
  checkpoint::RestoredRun forked =
      checkpoint::fork(snap.string(), {{"network.v2c_loss", "0.5"}});
  EXPECT_DOUBLE_EQ(
      forked.experiment.get_double("network", "v2c_loss", 0.0), 0.5);
  const auto result = forked.finish();
  EXPECT_EQ(result.strategy_name, "federated");
  EXPECT_GT(result.report.events_executed, 0U);

  // Identity fork == plain restore == uninterrupted run.
  const RunDigest uninterrupted = run_full(ini);
  checkpoint::RestoredRun identity = checkpoint::fork(snap.string(), {});
  const auto report = identity.simulator->run();
  EXPECT_EQ(digest(*identity.simulator, report).trace_csv,
            uninterrupted.trace_csv);
  fs::remove(snap);
}

TEST(CheckpointFork, FleetChangingOverrideIsRejected) {
  const auto ini = util::IniFile::parse(test_ini("federated"));
  const fs::path snap = tmp_file("rr_fork_bad.rrck");
  fs::remove(snap);
  run_full(ini, snap.string());
  // 12 vehicles still fit the data pool, so the scenario rebuilds fine and
  // the restore-time agent-count check is what rejects the fork.
  EXPECT_THROW(checkpoint::fork(snap.string(), {{"scenario.vehicles", "12"}}),
               std::runtime_error);
  EXPECT_THROW(
      checkpoint::fork(snap.string(), {{"strategy.name", "gossip"}}),
      std::runtime_error);
  EXPECT_THROW(checkpoint::fork(snap.string(), {{"malformed", "1"}}),
               std::runtime_error);
  fs::remove(snap);
}

TEST(CheckpointFork, TypoedOverrideKeyIsRejected) {
  const auto ini = util::IniFile::parse(test_ini("federated"));
  const fs::path snap = tmp_file("rr_fork_typo.rrck");
  fs::remove(snap);
  run_full(ini, snap.string());
  try {
    (void)checkpoint::fork(snap.string(), {{"network.v2c_los", "0.5"}});
    ADD_FAILURE() << "a misspelt override forked on the default loss";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("[network]: unknown key 'v2c_los'"),
              std::string::npos)
        << e.what();
  }
  fs::remove(snap);
}

// ------------------------------------------------ one-pass writer oracle --

namespace oracle {

// A naive assembly of a v6 snapshot, kept as the reference: every section
// in its own BinWriter, all of them copied into a second frame buffer
// behind their tags and sizes, the model table last, and the frame sealed
// with the bytewise CRC-32 loop. The simulator-state payloads come from
// the section table's rows; the model fields inside them go to a table
// that serializes each model and looks it up by comparing every byte with
// every entry before it.

using checkpoint::SimulatorIo;

constexpr char kMagic[4] = {'R', 'R', 'C', 'K'};
constexpr std::uint32_t kSectionMeta = 1;
constexpr std::uint32_t kSectionIni = 2;
constexpr std::uint32_t kSectionSim = 3;
constexpr std::uint32_t kSectionQueue = 4;
constexpr std::uint32_t kSectionStrategy = 5;
constexpr std::uint32_t kSectionMetrics = 6;
constexpr std::uint32_t kSectionTrace = 7;
constexpr std::uint32_t kSectionAdversary = 8;
constexpr std::uint32_t kSectionWorkload = 9;
constexpr std::uint32_t kSectionTraffic = 10;
constexpr std::uint32_t kSectionModels = 11;

/// Each distinct serialized model once, found by a linear search.
struct NaiveModels final : ml::ModelSink {
  std::vector<std::vector<std::uint8_t>> entries;

  std::uint32_t intern(const ml::Weights& w) override {
    std::vector<std::uint8_t> bytes = ml::serialize_weights(w);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i] == bytes) return static_cast<std::uint32_t>(i);
    }
    entries.push_back(std::move(bytes));
    return static_cast<std::uint32_t>(entries.size() - 1);
  }
};

bool workload_fingerprinted(const core::Simulator& sim) {
  return sim.ml().density() || sim.ml().has_eval_windows();
}

/// Section `tag`'s payload for `sim`, from its row of the section table.
void payload(std::uint32_t tag, const core::Simulator& sim,
             util::BinWriter& out) {
  checkpoint::SnapshotInfo info;
  const std::string path;
  checkpoint::Snapshot snapshot{info, const_cast<core::Simulator*>(&sim),
                                path};
  util::ArchiveWriter ar{out};
  for (const checkpoint::Section& row : SimulatorIo::sections()) {
    if (row.tag == tag) row.write(ar, snapshot);
  }
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

std::string image(const core::Simulator& sim,
                  const util::IniFile& experiment) {
  struct Section {
    std::uint32_t tag;
    std::string payload;
  };
  std::vector<Section> sections;
  NaiveModels models;
  const auto writer = [&models] {
    util::BinWriter w;
    w.set_models(&models);
    return w;
  };
  auto add = [&sections](std::uint32_t tag, util::BinWriter&& w) {
    sections.emplace_back(tag, std::move(w).take());
  };

  util::BinWriter meta;
  meta.f64(sim.now());
  meta.u64(SimulatorIo::executed_events(sim));
  meta.u64(SimulatorIo::pending_events(sim));
  meta.str(sim.strategy() ? sim.strategy()->name() : std::string{});
  meta.u64(sim.config().seed);
  add(kSectionMeta, std::move(meta));

  util::BinWriter ini;
  ini.str(experiment.to_string());
  add(kSectionIni, std::move(ini));

  util::BinWriter sim_state = writer();
  payload(kSectionSim, sim, sim_state);
  add(kSectionSim, std::move(sim_state));

  util::BinWriter queue = writer();
  payload(kSectionQueue, sim, queue);
  add(kSectionQueue, std::move(queue));

  if (sim.adversary().enabled()) {
    util::BinWriter adversary = writer();
    payload(kSectionAdversary, sim, adversary);
    add(kSectionAdversary, std::move(adversary));
  }

  if (workload_fingerprinted(sim)) {
    util::BinWriter workload;
    save_workload(sim, workload);
    add(kSectionWorkload, std::move(workload));
  }

  if (sim.traffic().enabled()) {
    util::BinWriter traffic = writer();
    payload(kSectionTraffic, sim, traffic);
    add(kSectionTraffic, std::move(traffic));
  }

  util::BinWriter strategy = writer();
  if (sim.strategy()) sim.strategy()->save_state(strategy);
  add(kSectionStrategy, std::move(strategy));

  util::BinWriter metrics = writer();
  payload(kSectionMetrics, sim, metrics);
  add(kSectionMetrics, std::move(metrics));

  util::BinWriter trace = writer();
  payload(kSectionTrace, sim, trace);
  add(kSectionTrace, std::move(trace));

  util::BinWriter table;
  table.u64(models.entries.size());
  for (const auto& entry : models.entries) table.bytes(entry);
  add(kSectionModels, std::move(table));

  util::BinWriter frame;
  frame.raw(kMagic, sizeof kMagic);
  frame.u32(checkpoint::kFormatVersion);
  frame.u32(static_cast<std::uint32_t>(sections.size()));
  for (const Section& s : sections) {
    frame.u32(s.tag);
    frame.u64(s.payload.size());
    frame.raw(s.payload.data(), s.payload.size());
  }
  frame.u32(testing::crc32_bytewise(frame.buffer().data(),
                                    frame.buffer().size()));
  return frame.take();
}

/// The section tags of a snapshot image, in file order.
std::vector<std::uint32_t> section_tags(const std::string& image) {
  util::BinReader in{image};
  (void)in.u32();  // magic
  (void)in.u32();  // version
  const std::uint32_t count = in.u32();
  std::vector<std::uint32_t> tags;
  for (std::uint32_t i = 0; i < count; ++i) {
    tags.push_back(in.u32());
    (void)in.sub(in.u64());
  }
  return tags;
}

}  // namespace oracle

/// Training jobs started but neither completed nor discarded, read off the
/// event trace (the INI must set trace_events).
std::size_t trainings_in_flight(const core::Simulator& sim) {
  std::size_t started = 0;
  std::size_t ended = 0;
  for (const core::TraceEvent& e : sim.trace().events()) {
    started += e.kind == core::TraceKind::kTrainingStarted ? 1 : 0;
    ended += e.kind == core::TraceKind::kTrainingCompleted ||
                     e.kind == core::TraceKind::kTrainingDiscarded
                 ? 1
                 : 0;
  }
  return started - ended;
}

/// Saves through checkpoint::save and compares the file byte for byte
/// with the oracle image of the same instant. Records instead of asserting,
/// so worker threads can use it too.
struct OracleCheck {
  std::size_t saves = 0;
  std::size_t mismatches = 0;
  std::size_t saves_in_flight = 0;
  std::size_t last_size = 0;
  std::set<std::uint32_t> tags;
  std::string first_mismatch;

  void save(const core::Simulator& sim, const util::IniFile& ini,
            const fs::path& path) {
    checkpoint::save(sim, ini, path.string());
    const std::string actual = slurp(path);
    const std::string expected = oracle::image(sim, ini);
    ++saves;
    saves_in_flight += trainings_in_flight(sim) > 0 ? 1 : 0;
    last_size = actual.size();
    for (std::uint32_t tag : oracle::section_tags(expected)) tags.insert(tag);
    if (actual.size() != expected.size() ||
        std::memcmp(actual.data(), expected.data(), actual.size()) != 0) {
      if (mismatches++ == 0) {
        std::size_t at = 0;
        while (at < std::min(actual.size(), expected.size()) &&
               actual[at] == expected[at]) {
          ++at;
        }
        first_mismatch = "t=" + std::to_string(sim.now()) + ": " +
                         std::to_string(actual.size()) + " vs " +
                         std::to_string(expected.size()) +
                         " bytes, first difference at byte " +
                         std::to_string(at);
      }
    }
  }
};

/// Runs `ini` with an oracle-checked save at t = 0 (before the run starts)
/// and at every `every_s` autosave tick.
OracleCheck run_with_oracle(const util::IniFile& ini, const fs::path& path,
                            double every_s) {
  OracleCheck check;
  scenario::Scenario scn{scenario::scenario_from_ini(ini)};
  auto sim = scn.make_simulator();
  sim->set_strategy(scenario::strategy_from_ini(ini));
  check.save(*sim, ini, path);
  sim->set_autosave(every_s, [&](core::Simulator& s) {
    check.save(s, ini, path);
  });
  (void)sim->run();
  fs::remove(path);
  return check;
}

fs::path oracle_file(const std::string& suffix) {
  return tmp_file(
      std::string{"rr_oracle_"} +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      suffix + ".rrck");
}

TEST(CheckpointWriterOracle, EveryStrategyFamilyMatchesTheReferenceAssembly) {
  std::size_t saves_in_flight = 0;
  for (const char* strategy :
       {"federated", "opportunistic", "gossip", "rsu_assisted",
        "federated_clustering", "centralized"}) {
    const auto ini = util::IniFile::parse(test_ini(strategy));
    const OracleCheck check =
        run_with_oracle(ini, oracle_file(strategy), 30.0);
    EXPECT_GT(check.saves, 10U) << strategy;
    EXPECT_EQ(check.mismatches, 0U) << strategy << ": " << check.first_mismatch;
    saves_in_flight += check.saves_in_flight;
  }
  // Some saves force a training job still in flight into the queue section.
  EXPECT_GT(saves_in_flight, 0U);
}

TEST(CheckpointWriterOracle, OptionalSectionsMatchTheReferenceAssembly) {
  const std::vector<std::pair<std::string, std::uint32_t>> cases = {
      {"adversarial.ini", oracle::kSectionAdversary},
      {"drift.ini", oracle::kSectionWorkload},
      {"traffic.ini", oracle::kSectionTraffic},
  };
  for (const auto& [file, tag] : cases) {
    const auto ini =
        util::IniFile::load(std::string{RR_EXAMPLES_DIR} + "/" + file);
    const OracleCheck check = run_with_oracle(ini, oracle_file(file), 200.0);
    EXPECT_GT(check.saves, 2U) << file;
    EXPECT_EQ(check.mismatches, 0U) << file << ": " << check.first_mismatch;
    EXPECT_EQ(check.tags.count(tag), 1U) << file << " lacks section " << tag;
  }
}

TEST(CheckpointWriterOracle, SmallerSaveAfterALargerOneHasNoStaleTail) {
  // Both saves run on this thread, so the second reuses the buffer the
  // first grew: a leftover tail would show as a size or CRC mismatch.
  auto ini = util::IniFile::parse(test_ini("opportunistic"));
  ini.set("train", "model", "mlp");
  const fs::path large = oracle_file("large");
  const fs::path small = oracle_file("small");
  OracleCheck check;
  {
    scenario::Scenario scn{scenario::scenario_from_ini(ini)};
    auto sim = scn.make_simulator();
    sim->set_strategy(scenario::strategy_from_ini(ini));
    sim->set_autosave(300.0, [&](core::Simulator& s) {
      if (check.saves == 0) check.save(s, ini, large);
    });
    (void)sim->run();
  }
  const std::size_t large_size = check.last_size;
  {
    scenario::Scenario scn{scenario::scenario_from_ini(ini)};
    auto sim = scn.make_simulator();
    sim->set_strategy(scenario::strategy_from_ini(ini));
    check.save(*sim, ini, small);
  }
  ASSERT_EQ(check.saves, 2U);
  EXPECT_LT(check.last_size, large_size);
  EXPECT_EQ(check.mismatches, 0U) << check.first_mismatch;
  fs::remove(large);
  fs::remove(small);
}

/// Writes part of its state, then throws: a save that dies mid-frame.
struct ThrowingSaveStrategy final : strategy::LearningStrategy {
  [[nodiscard]] std::string name() const override { return "throwing"; }
  void save_state(util::BinWriter& out) const override {
    out.u64(42);
    throw std::runtime_error{"save refused"};
  }
};

TEST(CheckpointWriterOracle, SaveAfterAThrowingSaveMatchesTheReferenceAssembly) {
  // The refused save dies part-way through the strategy section and leaves
  // a half-written frame in this thread's buffer; the next save must not
  // inherit any of it.
  auto ini = util::IniFile::parse(test_ini("federated"));
  {
    scenario::Scenario scn{scenario::scenario_from_ini(ini)};
    auto sim = scn.make_simulator();
    sim->set_strategy(std::make_shared<ThrowingSaveStrategy>());
    const fs::path refused = oracle_file("refused");
    sim->set_autosave(1.0, [&](core::Simulator& s) {
      checkpoint::save(s, ini, refused.string());
    });
    EXPECT_THROW(sim->run(), std::runtime_error);
    fs::remove(refused);
  }
  const OracleCheck check = run_with_oracle(ini, oracle_file("after"), 150.0);
  EXPECT_GT(check.saves, 2U);
  EXPECT_EQ(check.mismatches, 0U) << check.first_mismatch;
}

TEST(CheckpointWriterOracle, FourThreadsSavingAtOnceMatchTheReferenceAssembly) {
  // Each thread writes through its own buffer; concurrent saves must
  // neither share nor corrupt one another's frames.
  const std::vector<const char*> strategies = {"federated", "opportunistic",
                                               "gossip", "rsu_assisted"};
  std::vector<OracleCheck> checks(strategies.size());
  std::vector<fs::path> paths;
  for (const char* strategy : strategies) paths.push_back(oracle_file(strategy));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    threads.emplace_back([&, i] {
      auto ini = util::IniFile::parse(test_ini(strategies[i]));
      ini.set("scenario", "seed", std::to_string(20 + i));
      checks[i] = run_with_oracle(ini, paths[i], 45.0);
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    EXPECT_GT(checks[i].saves, 10U) << strategies[i];
    EXPECT_EQ(checks[i].mismatches, 0U)
        << strategies[i] << ": " << checks[i].first_mismatch;
  }
}

// ------------------------------------------- restore-then-save symmetry --

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

/// Restores each autosave and saves the restored simulator again at once.
/// A field that the writer stores and the reader skips, reads short, or
/// puts in the wrong place shows up as a byte difference, in any section.
struct SymmetryCheck {
  std::size_t saves = 0;
  std::size_t mismatches = 0;
  std::size_t saves_in_flight = 0;
  std::set<std::uint32_t> tags;
  std::string last_image;
  std::string first_mismatch;
};

SymmetryCheck restore_then_save_everywhere(const util::IniFile& ini,
                                           const std::string& name,
                                           double every_s) {
  const fs::path saved = tmp_file("rr_bytes_" + name + ".rrck");
  const fs::path again = tmp_file("rr_bytes_" + name + "_again.rrck");
  SymmetryCheck check;
  scenario::Scenario scn{scenario::scenario_from_ini(ini)};
  auto sim = scn.make_simulator();
  sim->set_strategy(scenario::strategy_from_ini(ini));
  sim->set_autosave(every_s, [&](core::Simulator& s) {
    checkpoint::save(s, ini, saved.string());
    {
      checkpoint::RestoredRun run = checkpoint::restore(saved.string());
      checkpoint::save(*run.simulator, run.experiment, again.string());
    }
    check.last_image = slurp(saved);
    const std::string image = slurp(again);
    ++check.saves;
    check.saves_in_flight += trainings_in_flight(s) > 0 ? 1 : 0;
    for (std::uint32_t tag : oracle::section_tags(check.last_image)) {
      check.tags.insert(tag);
    }
    if (image != check.last_image && check.mismatches++ == 0) {
      std::size_t at = 0;
      while (at < std::min(image.size(), check.last_image.size()) &&
             image[at] == check.last_image[at]) {
        ++at;
      }
      check.first_mismatch = "t=" + std::to_string(s.now()) +
                             ": first difference at byte " +
                             std::to_string(at);
    }
  });
  (void)sim->run();
  fs::remove(saved);
  fs::remove(again);
  return check;
}

TEST(CheckpointBytes, RestoreThenSaveReproducesTheImage) {
  struct Case {
    std::string name;
    util::IniFile ini;
    double every_s;
    std::uint64_t final_fnv;  ///< FNV-1a-64 of the last autosave image
  };
  const auto example = [](const char* file) {
    return util::IniFile::load(std::string{RR_EXAMPLES_DIR} + "/" + file);
  };
  // The FNV pins hold the bytes of format v6 (each model once, in the
  // model table) at each run's last autosave, the last one before the
  // run's final event.
  const auto family = [](const char* strategy) {
    return util::IniFile::parse(test_ini(strategy));
  };
  const std::vector<Case> cases = {
      {"federated", family("federated"), 30.0, 0x9d212dc7588eafd2ULL},
      {"opportunistic", family("opportunistic"), 30.0, 0x90de1e4d20bf4ffdULL},
      {"gossip", family("gossip"), 30.0, 0x903a2a4d37a0fcfdULL},
      {"rsu_assisted", family("rsu_assisted"), 30.0, 0x6f7127bf2485a531ULL},
      {"federated_clustering", family("federated_clustering"), 30.0,
       0xbeabf75d279fefeeULL},
      {"centralized", family("centralized"), 30.0, 0x0f8592c19fe692bdULL},
      {"adversarial", example("adversarial.ini"), 200.0,
       0x9c0929cb08d25695ULL},
      {"drift", example("drift.ini"), 200.0, 0xdad032bdbd5695c5ULL},
      {"traffic", example("traffic.ini"), 200.0, 0x193fa3b6f0a57ed3ULL},
  };
  std::size_t saves = 0;
  std::size_t saves_in_flight = 0;
  std::set<std::uint32_t> tags;
  for (const Case& c : cases) {
    const SymmetryCheck check =
        restore_then_save_everywhere(c.ini, c.name, c.every_s);
    EXPECT_GT(check.saves, 2U) << c.name;
    EXPECT_EQ(check.mismatches, 0U) << c.name << ": " << check.first_mismatch;
    EXPECT_EQ(fnv1a64(check.last_image), c.final_fnv)
        << c.name << std::hex << ": 0x" << fnv1a64(check.last_image);
    saves += check.saves;
    saves_in_flight += check.saves_in_flight;
    tags.insert(check.tags.begin(), check.tags.end());
  }
  EXPECT_GT(saves, 100U);
  // Some saves force a training job still in flight into the queue
  // section, and together the runs write every section tag there is.
  EXPECT_GT(saves_in_flight, 0U);
  EXPECT_EQ(tags,
            (std::set<std::uint32_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(CheckpointGolden, V5SnapshotWithModelsInFlightResumesExactly) {
  // Committed fixture written by the last build of format v5, where every
  // model was inline: taken at the first autosave with training jobs in
  // flight, so its queue holds forced training results beside the agents'
  // models, the messages and the strategy's buffers. Restoring it and
  // finishing must reproduce a fresh run of its embedded experiment
  // byte for byte.
  const fs::path dir{RR_TEST_DATA_DIR};
  const fs::path snap = dir / "checkpoint_v5_golden.rrck";
  const fs::path ini_path = dir / "checkpoint_v5_golden.ini";
  ASSERT_TRUE(fs::exists(snap)) << snap;
  ASSERT_TRUE(fs::exists(ini_path)) << ini_path;

  const checkpoint::SnapshotInfo info = checkpoint::peek(snap.string());
  EXPECT_EQ(info.format_version, 5U);
  EXPECT_EQ(info.strategy_name, "opportunistic");

  checkpoint::RestoredRun resumed = checkpoint::restore(snap.string());
  EXPECT_GT(trainings_in_flight(*resumed.simulator), 0U);
  const scenario::RunResult finished = resumed.finish();
  const scenario::RunResult fresh =
      scenario::run_experiment(util::IniFile::load(ini_path.string()));
  EXPECT_DOUBLE_EQ(finished.final_accuracy, fresh.final_accuracy);
  std::ostringstream a, b;
  finished.metrics.export_csv(a);
  fresh.metrics.export_csv(b);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace roadrunner
