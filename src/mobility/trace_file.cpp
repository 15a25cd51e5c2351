#include "mobility/trace_file.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace roadrunner::mobility {

namespace {

using util::CsvWriter;

/// A CSV row with the 1-based line it came from, so malformed input is
/// reported as "<path>:<line>: ..." instead of a bare complaint.
struct NumberedRow {
  std::size_t line = 0;
  std::vector<std::string> fields;
};

[[noreturn]] void fail(const std::string& path, std::size_t line,
                       const std::string& msg) {
  throw std::runtime_error{"trace_file: " + path + ":" +
                           std::to_string(line) + ": " + msg};
}

std::vector<NumberedRow> read_rows(std::istream& in) {
  auto raw = util::read_csv(in);
  std::vector<NumberedRow> rows;
  rows.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    rows.push_back(NumberedRow{i + 1, std::move(raw[i])});
  }
  // Drop a header row if the first field is non-numeric.
  if (!rows.empty() && !rows.front().fields.empty()) {
    const std::string& head = rows.front().fields.front();
    if (head.find_first_not_of("0123456789") != std::string::npos) {
      rows.erase(rows.begin());
    }
  }
  return rows;
}

std::vector<NumberedRow> read_rows_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"trace_file: cannot open " + path};
  return read_rows(in);
}

/// Largest vehicle id a trace row may carry. Ids must be dense 0..N-1
/// anyway, so this only bounds how much `samples` can grow on a hostile id
/// before the density check would reject the file — without the cap a
/// single row saying "99999999999,..." forces a multi-gigabyte resize (or a
/// std::stoull out_of_range that escapes the fail() contract entirely).
constexpr std::size_t kMaxVehicleId = 2'000'000;

std::size_t parse_id(const std::string& path, const NumberedRow& row,
                     const std::string& value) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    fail(path, row.line, "vehicle id '" + value + "' is not a whole number");
  }
  std::size_t id = 0;
  for (const char c : value) {
    id = id * 10 + static_cast<std::size_t>(c - '0');
    if (id > kMaxVehicleId) {
      fail(path, row.line, "vehicle id '" + value + "' exceeds the " +
                               std::to_string(kMaxVehicleId) +
                               " vehicle limit");
    }
  }
  return id;
}

double parse_value(const std::string& path, const NumberedRow& row,
                   const std::string& what, const std::string& value) {
  const char* begin = value.c_str();
  char* end = nullptr;
  const double parsed = std::strtod(begin, &end);
  if (end == begin || *end != '\0') {
    fail(path, row.line, what + " '" + value + "' is not a number");
  }
  if (!std::isfinite(parsed)) {
    fail(path, row.line, what + " '" + value + "' must be finite");
  }
  return parsed;
}

FleetModel build_fleet(const std::vector<NumberedRow>& trace_rows,
                       const std::string& traces_path,
                       const std::vector<NumberedRow>& ignition_rows,
                       const std::string& ignition_path, bool geo,
                       const GeoPoint& reference) {
  struct RawSample {
    double t, a, b;
  };
  std::vector<std::vector<RawSample>> samples;
  for (const auto& row : trace_rows) {
    if (row.fields.size() != 4) {
      fail(traces_path, row.line,
           "traces row needs 4 fields (vehicle_id,time_s,x,y), got " +
               std::to_string(row.fields.size()));
    }
    const std::size_t id = parse_id(traces_path, row, row.fields[0]);
    if (id >= samples.size()) samples.resize(id + 1);
    samples[id].push_back(
        RawSample{parse_value(traces_path, row, "time_s", row.fields[1]),
                  parse_value(traces_path, row, "coordinate", row.fields[2]),
                  parse_value(traces_path, row, "coordinate", row.fields[3])});
  }

  std::vector<std::vector<OnInterval>> intervals(samples.size());
  for (const auto& row : ignition_rows) {
    if (row.fields.size() != 3) {
      fail(ignition_path, row.line,
           "ignition row needs 3 fields (vehicle_id,start_s,end_s), got " +
               std::to_string(row.fields.size()));
    }
    const std::size_t id = parse_id(ignition_path, row, row.fields[0]);
    if (id >= samples.size()) {
      fail(ignition_path, row.line,
           "ignition row for unknown vehicle " + std::to_string(id));
    }
    const double start =
        parse_value(ignition_path, row, "start_s", row.fields[1]);
    const double end = parse_value(ignition_path, row, "end_s", row.fields[2]);
    if (end <= start) {
      fail(ignition_path, row.line,
           "ignition interval end " + row.fields[2] +
               " must be after start " + row.fields[1]);
    }
    intervals[id].push_back({start, end});
  }

  std::vector<VehicleTrack> tracks;
  tracks.reserve(samples.size());
  for (std::size_t id = 0; id < samples.size(); ++id) {
    auto& raw = samples[id];
    if (raw.empty()) {
      throw std::runtime_error{"trace_file: vehicle ids must be dense 0..N-1"};
    }
    std::sort(raw.begin(), raw.end(),
              [](const RawSample& x, const RawSample& y) { return x.t < y.t; });
    // Trace's constructor demands strictly increasing timestamps; catch the
    // duplicate here so the caller gets the documented runtime_error with
    // file context instead of a bare invalid_argument.
    for (std::size_t i = 1; i < raw.size(); ++i) {
      if (raw[i].t == raw[i - 1].t) {
        throw std::runtime_error{
            "trace_file: " + traces_path + ": vehicle " + std::to_string(id) +
            " has two samples at time " + std::to_string(raw[i].t)};
      }
    }
    std::vector<TraceSample> ts;
    ts.reserve(raw.size());
    for (const auto& s : raw) {
      const Position p = geo ? project(GeoPoint{s.a, s.b}, reference)
                             : Position{s.a, s.b};
      ts.push_back({s.t, p});
    }
    auto& ivs = intervals[id];
    std::sort(ivs.begin(), ivs.end(),
              [](const OnInterval& x, const OnInterval& y) {
                return x.start_s < y.start_s;
              });
    for (std::size_t i = 1; i < ivs.size(); ++i) {
      if (ivs[i].start_s < ivs[i - 1].end_s) {
        throw std::runtime_error{
            "trace_file: " + ignition_path + ": vehicle " +
            std::to_string(id) +
            " has overlapping ignition intervals (non-monotone schedule)"};
      }
    }
    // A geo projection of finite input can still overflow; Trace rejects
    // the non-finite result, reported here with the file's context.
    try {
      tracks.push_back(VehicleTrack{Trace{std::move(ts)},
                                    IgnitionSchedule{std::move(ivs)}});
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error{"trace_file: " + traces_path + ": vehicle " +
                               std::to_string(id) + ": " + e.what()};
    }
  }
  return FleetModel{std::move(tracks)};
}

}  // namespace

FleetModel load_fleet_csv(const std::string& traces_path,
                          const std::string& ignition_path) {
  return build_fleet(read_rows_file(traces_path), traces_path,
                     read_rows_file(ignition_path), ignition_path,
                     /*geo=*/false, GeoPoint{});
}

FleetModel load_fleet_csv_geo(const std::string& traces_path,
                              const std::string& ignition_path,
                              const GeoPoint& reference) {
  return build_fleet(read_rows_file(traces_path), traces_path,
                     read_rows_file(ignition_path), ignition_path,
                     /*geo=*/true, reference);
}

FleetModel load_fleet_csv_text(const std::string& traces_csv,
                               const std::string& ignition_csv) {
  std::istringstream traces{traces_csv};
  std::istringstream ignition{ignition_csv};
  return build_fleet(read_rows(traces), "<traces>", read_rows(ignition),
                     "<ignition>", /*geo=*/false, GeoPoint{});
}

void save_fleet_csv(const FleetModel& fleet, const std::string& traces_path,
                    const std::string& ignition_path) {
  std::ofstream traces{traces_path};
  if (!traces) {
    throw std::runtime_error{"save_fleet_csv: cannot open " + traces_path};
  }
  CsvWriter tw{traces};
  tw.write_row({"vehicle_id", "time_s", "x_m", "y_m"});
  for (NodeId v = 0; v < fleet.vehicle_count(); ++v) {
    for (const auto& s : fleet.vehicle(v).trace.samples()) {
      tw.write_row({CsvWriter::field(static_cast<std::uint64_t>(v)),
                    CsvWriter::field(s.time_s), CsvWriter::field(s.position.x),
                    CsvWriter::field(s.position.y)});
    }
  }

  std::ofstream ign{ignition_path};
  if (!ign) {
    throw std::runtime_error{"save_fleet_csv: cannot open " + ignition_path};
  }
  CsvWriter iw{ign};
  iw.write_row({"vehicle_id", "start_s", "end_s"});
  for (NodeId v = 0; v < fleet.vehicle_count(); ++v) {
    const auto& schedule = fleet.vehicle(v).ignition;
    if (schedule.is_always_on()) {
      iw.write_row({CsvWriter::field(static_cast<std::uint64_t>(v)),
                    CsvWriter::field(0.0),
                    CsvWriter::field(fleet.vehicle(v).trace.end_time())});
      continue;
    }
    for (const auto& iv : schedule.intervals()) {
      iw.write_row({CsvWriter::field(static_cast<std::uint64_t>(v)),
                    CsvWriter::field(iv.start_s), CsvWriter::field(iv.end_s)});
    }
  }
}

}  // namespace roadrunner::mobility
