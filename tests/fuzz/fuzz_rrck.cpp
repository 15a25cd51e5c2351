// Fuzz target: the RRCK snapshot container (magic, version, CRC trailer,
// section table, metadata sections) via checkpoint::peek_bytes, and every
// section's reader. Contract under test: every malformed image is rejected
// with std::runtime_error — truncation, overlapping or overrunning
// sections, hostile length or count fields, out-of-range agent ids and
// enum bytes must never read out of bounds, index past a table, or
// allocate unboundedly.
//
// The raw input mostly dies at the magic or CRC check, so after the first
// attempt the harness re-seals the image — stamps the magic and recomputes
// the CRC trailer — and parses again. That second pass is what reaches the
// section-table and metadata decoding with fuzzer-controlled bytes. Then,
// as restore does, the model table (tag 11, format v6) is decoded first
// and each other section payload the image holds goes to its row of the
// section table, read against a tiny rebuilt simulator (10 vehicles,
// logreg) with that table attached; the seed corpus holds a real v6 image
// and a real v5 image per optional section.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint.hpp"
#include "checkpoint/sim_io.hpp"
#include "ml/serialize.hpp"
#include "scenario/experiment.hpp"
#include "util/archive.hpp"
#include "util/binary_io.hpp"
#include "util/ini.hpp"

#include "fuzz_main.hpp"

namespace {

namespace rr = roadrunner;

/// Built once: the readers only overwrite state, and the checks they make
/// (agent count, plan shapes) compare against what never changes.
rr::core::Simulator& tiny_simulator() {
  static const auto ini = rr::util::IniFile::parse(R"([scenario]
vehicles = 10
seed = 11
horizon_s = 300
trace_events = true
[city]
duration_s = 300
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
name = federated
rounds = 2
participants = 3
round_duration_s = 60
)");
  static rr::scenario::Scenario scenario{rr::scenario::scenario_from_ini(ini)};
  static const std::unique_ptr<rr::core::Simulator> sim = [] {
    auto s = scenario.make_simulator();
    s->set_strategy(rr::scenario::strategy_from_ini(ini));
    return s;
  }();
  return *sim;
}

/// Runs each section of a sealed image through its table row's reader,
/// after decoding the model table that their model fields refer into.
void read_sections(const std::string& image) {
  rr::util::BinReader in{std::string_view{image}.substr(4, image.size() - 8)};
  const std::uint32_t version = in.u32();
  const std::uint32_t count = in.u32();
  std::vector<std::pair<std::uint32_t, rr::util::BinReader>> sections;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t tag = in.u32();
    sections.emplace_back(tag, in.sub(in.u64()));
  }

  rr::ml::ModelTableView models;
  for (auto& [tag, payload] : sections) {
    if (tag != rr::checkpoint::kSectionModels) continue;
    try {
      models = rr::ml::ModelTableView{payload.view(payload.remaining()),
                                      "checkpoint: model table section"};
    } catch (const std::runtime_error&) {
    }
  }

  rr::checkpoint::SnapshotInfo info;
  const std::string path = "<fuzz>";
  rr::checkpoint::Snapshot snapshot{info, &tiny_simulator(), path};
  for (auto& [tag, payload] : sections) {
    for (const rr::checkpoint::Section& row :
         rr::checkpoint::SimulatorIo::sections()) {
      if (row.tag != tag) continue;
      payload.set_models(version >= 6 ? &models : nullptr);
      rr::util::ArchiveReader ar{payload, row.context, version};
      try {
        row.read(ar, snapshot);
      } catch (const std::runtime_error&) {
      }
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::string image(reinterpret_cast<const char*>(data), size);
  try {
    (void)rr::checkpoint::peek_bytes(image);
  } catch (const std::runtime_error&) {
  }

  // magic(4) + version(4) + count(4) + crc(4)
  if (image.size() < 16) return 0;
  image.replace(0, 4, "RRCK");
  const std::uint32_t crc = rr::util::crc32(image.data(), image.size() - 4);
  for (int i = 0; i < 4; ++i) {
    image[image.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  try {
    (void)rr::checkpoint::peek_bytes(image);
  } catch (const std::runtime_error&) {
  }
  try {
    read_sections(image);
  } catch (const std::runtime_error&) {
  }
  return 0;
}
