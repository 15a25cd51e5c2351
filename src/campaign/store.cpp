#include "campaign/store.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <tuple>

#include "util/binary_io.hpp"
#include "util/csv.hpp"

namespace roadrunner::campaign {

namespace {

// Record file layout (long-format CSV, RFC-4180 quoting via CsvWriter):
//   field,name,value
//   meta,hash,3f2a...
//   meta,point_index,4
//   ...
//   metric,final_accuracy,0.52
constexpr const char* kSuffix = ".csv";

std::uint64_t parse_u64(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(s, &pos);
    if (pos != s.size()) throw std::invalid_argument{s};
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error{std::string{"ResultStore: bad "} + what + " '" +
                             s + "'"};
  }
}

double parse_double(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument{s};
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error{std::string{"ResultStore: bad "} + what + " '" +
                             s + "'"};
  }
}

}  // namespace

double JobRecord::metric(const std::string& name, double fallback) const {
  for (const auto& [metric_name, value] : metrics) {
    if (metric_name == name) return value;
  }
  return fallback;
}

ResultStore::ResultStore(std::filesystem::path dir) : dir_{std::move(dir)} {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error{"ResultStore: cannot create directory " +
                             dir_.string()};
  }
}

std::filesystem::path ResultStore::record_path(const std::string& hash) const {
  return dir_ / (hash + kSuffix);
}

bool ResultStore::contains(const std::string& hash) const {
  return std::filesystem::exists(record_path(hash));
}

void ResultStore::save(const JobRecord& record) const {
  if (record.hash.empty()) {
    throw std::runtime_error{"ResultStore: record has no hash"};
  }
  const auto final_path = record_path(record.hash);
  const auto tmp_path = dir_ / (record.hash + kSuffix + ".tmp");
  {
    std::ofstream out{tmp_path, std::ios::trunc};
    if (!out) {
      throw std::runtime_error{"ResultStore: cannot write " +
                               tmp_path.string()};
    }
    util::CsvWriter w{out};
    w.write_row({"field", "name", "value"});
    w.write_row({"meta", "hash", record.hash});
    w.write_row({"meta", "point_index",
                 util::CsvWriter::field(
                     static_cast<std::uint64_t>(record.point_index))});
    w.write_row({"meta", "seed_index",
                 util::CsvWriter::field(
                     static_cast<std::uint64_t>(record.seed_index))});
    w.write_row({"meta", "seed", util::CsvWriter::field(record.seed)});
    w.write_row({"meta", "point_label", record.point_label});
    w.write_row({"meta", "strategy", record.strategy_name});
    w.write_row({"meta", "wall_seconds",
                 util::CsvWriter::field(record.wall_seconds)});
    for (const auto& [name, value] : record.metrics) {
      w.write_row({"metric", name, util::CsvWriter::field(value)});
    }
    if (!out) {
      throw std::runtime_error{"ResultStore: write failed on " +
                               tmp_path.string()};
    }
  }
  // rename() within one directory is atomic: a concurrent or interrupted
  // save never exposes a partial record. The fsyncs (file, then directory
  // entry) make it durable too — a power cut right after save() returns
  // cannot lose the record, which is what lets a resumed campaign trust
  // contains() unconditionally.
  util::sync_file(tmp_path.string());
  std::filesystem::rename(tmp_path, final_path);
  util::sync_dir(dir_.string());
}

JobRecord ResultStore::load(const std::string& hash) const {
  std::ifstream in{record_path(hash)};
  if (!in) {
    throw std::runtime_error{"ResultStore: no record for job " + hash};
  }
  const auto rows = util::read_csv(in);
  JobRecord record;
  bool saw_hash = false;
  for (std::size_t i = 1; i < rows.size(); ++i) {  // row 0 is the header
    const auto& row = rows[i];
    if (row.size() != 3) {
      throw std::runtime_error{"ResultStore: malformed row in record " + hash};
    }
    const std::string& field = row[0];
    const std::string& name = row[1];
    const std::string& value = row[2];
    if (field == "metric") {
      record.metrics.emplace_back(name, parse_double(value, "metric value"));
    } else if (field == "meta") {
      if (name == "hash") {
        record.hash = value;
        saw_hash = true;
      } else if (name == "point_index") {
        record.point_index =
            static_cast<std::size_t>(parse_u64(value, "point_index"));
      } else if (name == "seed_index") {
        record.seed_index =
            static_cast<std::size_t>(parse_u64(value, "seed_index"));
      } else if (name == "seed") {
        record.seed = parse_u64(value, "seed");
      } else if (name == "point_label") {
        record.point_label = value;
      } else if (name == "strategy") {
        record.strategy_name = value;
      } else if (name == "wall_seconds") {
        record.wall_seconds = parse_double(value, "wall_seconds");
      }
      // Unknown meta keys are ignored so old binaries read newer stores.
    } else {
      throw std::runtime_error{"ResultStore: unknown field '" + field +
                               "' in record " + hash};
    }
  }
  if (!saw_hash || record.hash != hash) {
    throw std::runtime_error{"ResultStore: record " + hash +
                             " is corrupt (hash mismatch)"};
  }
  return record;
}

std::vector<JobRecord> ResultStore::load_all() const {
  std::vector<JobRecord> records;
  for (const auto& entry : std::filesystem::directory_iterator{dir_}) {
    if (!entry.is_regular_file()) continue;
    const auto name = entry.path().filename().string();
    // Skips half-written `.csv.tmp` files and anything else not a record.
    if (name.size() <= std::string{kSuffix}.size() ||
        !name.ends_with(kSuffix)) {
      continue;
    }
    records.push_back(
        load(name.substr(0, name.size() - std::string{kSuffix}.size())));
  }
  std::sort(records.begin(), records.end(),
            [](const JobRecord& a, const JobRecord& b) {
              return std::tie(a.point_index, a.seed_index, a.hash) <
                     std::tie(b.point_index, b.seed_index, b.hash);
            });
  return records;
}

}  // namespace roadrunner::campaign
