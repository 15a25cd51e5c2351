#include "campaign/spec.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "scenario/experiment.hpp"
#include "util/rng.hpp"

namespace roadrunner::campaign {

namespace {

/// Splits "v1, v2, v3" into trimmed tokens (empty tokens rejected later).
std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::string current;
  auto flush = [&] {
    const auto begin = current.find_first_not_of(" \t");
    if (begin == std::string::npos) {
      out.emplace_back();
    } else {
      const auto end = current.find_last_not_of(" \t");
      out.push_back(current.substr(begin, end - begin + 1));
    }
    current.clear();
  };
  for (char c : text) {
    if (c == ',') {
      flush();
    } else {
      current += c;
    }
  }
  flush();
  return out;
}

void validate_axis(const SweepAxis& axis) {
  if (axis.section.empty() || axis.key.empty()) {
    throw std::invalid_argument{"campaign: sweep axis needs section and key"};
  }
  if (axis.values.empty()) {
    throw std::invalid_argument{"campaign: sweep axis " + axis.section + "." +
                                axis.key + " has no values"};
  }
  for (const auto& v : axis.values) {
    if (v.empty()) {
      throw std::invalid_argument{"campaign: sweep axis " + axis.section +
                                  "." + axis.key + " has an empty value"};
    }
  }
}

void append_label(std::string& label, const std::string& key,
                  const std::string& value) {
  if (!label.empty()) label += ", ";
  label += key + "=" + value;
}

}  // namespace

std::uint64_t derive_job_seed(std::uint64_t base_seed,
                              std::size_t point_index,
                              std::size_t seed_index) {
  // Mix identity into a SplitMix64 state; golden-ratio constants keep
  // neighbouring (point, replicate) pairs statistically independent.
  std::uint64_t state =
      base_seed ^
      (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(point_index) + 1)) ^
      (0xBF58476D1CE4E5B9ULL * (static_cast<std::uint64_t>(seed_index) + 1));
  return util::splitmix64(state);
}

std::string job_hash(const util::IniFile& experiment) {
  // Canonical serialization: sections and keys in sorted order (IniFile
  // iterates std::maps), "[s]\nk=v\n" framing so (section, key, value)
  // boundaries cannot alias.
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a 64
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001B3ULL;
    }
    h ^= 0xFF;  // terminator, so "ab"+"c" != "a"+"bc"
    h *= 0x100000001B3ULL;
  };
  for (const auto& section : experiment.sections()) {
    mix("[" + section + "]");
    for (const auto& key : experiment.keys(section)) {
      mix(key + "=" + experiment.get(section, key));
    }
  }
  static const char* hex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[h & 0xF];
    h >>= 4;
  }
  return out;
}

std::size_t zip_rows(const CampaignSpec& spec) {
  return spec.zipped.empty() ? 1 : spec.zipped.front().values.size();
}

std::size_t grid_combos(const CampaignSpec& spec) {
  std::size_t combos = 1;
  for (const auto& axis : spec.grid) combos *= axis.values.size();
  return combos;
}

std::size_t point_count(const CampaignSpec& spec) {
  return zip_rows(spec) * grid_combos(spec);
}

std::vector<std::size_t> grid_pick(const CampaignSpec& spec, std::size_t g) {
  std::vector<std::size_t> pick(spec.grid.size(), 0);
  for (std::size_t a = spec.grid.size(); a-- > 0;) {
    pick[a] = g % spec.grid[a].values.size();
    g /= spec.grid[a].values.size();
  }
  return pick;
}

std::vector<Job> expand(const CampaignSpec& spec) {
  if (spec.seeds_per_point == 0) {
    throw std::invalid_argument{"campaign: seeds_per_point must be >= 1"};
  }
  for (const auto& axis : spec.grid) validate_axis(axis);
  for (const auto& axis : spec.zipped) validate_axis(axis);
  for (const auto& axis : spec.zipped) {
    if (axis.values.size() != spec.zipped.front().values.size()) {
      throw std::invalid_argument{
          "campaign: zipped axes must have equal lengths (" + axis.section +
          "." + axis.key + " differs)"};
    }
  }

  const std::size_t combos = grid_combos(spec);
  std::vector<Job> jobs;
  jobs.reserve(point_count(spec) * spec.seeds_per_point);

  for (std::size_t z = 0; z < zip_rows(spec); ++z) {
    for (std::size_t g = 0; g < combos; ++g) {
      const std::vector<std::size_t> pick = grid_pick(spec, g);
      util::IniFile point = spec.base;
      std::string label;
      for (const auto& axis : spec.zipped) {
        point.set(axis.section, axis.key, axis.values[z]);
        append_label(label, axis.key, axis.values[z]);
      }
      for (std::size_t a = 0; a < spec.grid.size(); ++a) {
        point.set(spec.grid[a].section, spec.grid[a].key,
                  spec.grid[a].values[pick[a]]);
        append_label(label, spec.grid[a].key, spec.grid[a].values[pick[a]]);
      }

      const std::size_t point_index = z * combos + g;
      for (std::size_t s = 0; s < spec.seeds_per_point; ++s) {
        Job job;
        job.point_index = point_index;
        job.seed_index = s;
        job.seed = spec.pair_seeds
                       ? spec.base_seed + s
                       : derive_job_seed(spec.base_seed, point_index, s);
        job.point_label = label;
        job.experiment = point;
        job.experiment.set("scenario", "seed", std::to_string(job.seed));
        job.hash = job_hash(job.experiment);
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

CampaignSpec campaign_from_ini(const util::IniFile& ini) {
  CampaignSpec spec;
  // `store` is the roadrunner_campaign CLI's default result store.
  ini.check_keys("campaign",
                 {"name", "seeds", "base_seed", "pair_seeds", "store"});
  spec.name = ini.get("campaign", "name", spec.name);
  const std::int64_t seeds = ini.get_int(
      "campaign", "seeds", static_cast<std::int64_t>(spec.seeds_per_point));
  if (seeds < 1) {
    throw std::invalid_argument{"campaign: [campaign] seeds must be >= 1, got " +
                                std::to_string(seeds)};
  }
  spec.seeds_per_point = static_cast<std::size_t>(seeds);
  spec.base_seed =
      ini.get_uint64("campaign", "base_seed", spec.base_seed);
  spec.pair_seeds = ini.get_bool("campaign", "pair_seeds", spec.pair_seeds);

  auto parse_axes = [&ini](const std::string& section) {
    std::vector<SweepAxis> axes;
    for (const auto& key : ini.keys(section)) {
      SweepAxis axis;
      std::tie(axis.section, axis.key) =
          util::split_section_key(key, "campaign: [" + section + "]");
      axis.values = split_list(ini.get(section, key));
      axes.push_back(std::move(axis));
    }
    return axes;
  };
  spec.grid = parse_axes("sweep");
  spec.zipped = parse_axes("sweep.zip");

  // A typo must not silently drop a table: unknown keys and empty metric
  // names are errors, and a [report] section needs a metrics list.
  const std::vector<std::string> sections = ini.sections();
  auto metric_list = [&ini](const std::string& key) {
    std::vector<std::string> names = split_list(ini.get("report", key));
    for (const auto& name : names) {
      if (name.empty()) {
        throw std::invalid_argument{"campaign: [report] " + key +
                                    " must list metric names, none empty"};
      }
    }
    return names;
  };
  ini.check_keys("report", {"metrics", "scorecard"});
  if (std::find(sections.begin(), sections.end(), "report") != sections.end()) {
    spec.report.metrics = metric_list("metrics");
    if (ini.has("report", "scorecard")) {
      spec.report.scorecard = metric_list("scorecard");
    }
  }

  // Everything that is not campaign machinery is the base experiment.
  for (const auto& section : sections) {
    if (section == "campaign" || section == "sweep" ||
        section == "sweep.zip" || section == "report") {
      continue;
    }
    for (const auto& key : ini.keys(section)) {
      spec.base.set(section, key, ini.get(section, key));
    }
  }
  // Validate eagerly so a bad file fails before any job runs: every job's
  // experiment must parse, so a typo'd sweep axis cannot run on defaults.
  for (const Job& job : expand(spec)) {
    (void)scenario::scenario_from_ini(job.experiment);
    (void)scenario::strategy_from_ini(job.experiment);
  }
  return spec;
}

}  // namespace roadrunner::campaign
