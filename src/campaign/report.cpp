#include "campaign/report.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>

namespace roadrunner::campaign {

namespace {

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += '/';
    out += parts[i];
  }
  return out;
}

std::string cell(const PointSummary* point, const std::string& metric) {
  if (point == nullptr) return "-";
  const auto it = point->metrics.find(metric);
  if (it == point->metrics.end()) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", it->second.mean);
  return buf;
}

/// Writes `heading`, then rows of cells: the first column left-aligned,
/// the rest right-aligned, each column as wide as its widest cell.
void print(std::ostream& out, const std::string& heading,
           const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> width(rows.front().size(), 0);
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  out << '\n' << heading << '\n';
  for (const auto& row : rows) {
    out << row[0] << std::string(width[0] - row[0].size(), ' ');
    for (std::size_t c = 1; c < row.size(); ++c) {
      out << "  " << std::string(width[c] - row[c].size(), ' ') << row[c];
    }
    out << '\n';
  }
}

}  // namespace

void write_report(std::ostream& out, const CampaignSpec& spec,
                  const std::vector<PointSummary>& summaries) {
  const std::size_t rows = zip_rows(spec);
  const std::size_t combos = grid_combos(spec);
  if (spec.report.metrics.empty() || combos == 0) return;

  std::vector<const PointSummary*> by_point(rows * combos, nullptr);
  for (const auto& summary : summaries) {
    if (summary.point_index < by_point.size()) {
      by_point[summary.point_index] = &summary;
    }
  }

  // Row labels: the zip axes whose values differ between rows, strategy.name
  // first (it is what the report compares), then the rest in spec order.
  std::vector<const SweepAxis*> differing;
  for (const auto& axis : spec.zipped) {
    if (std::all_of(axis.values.begin(), axis.values.end(),
                    [&](const auto& v) { return v == axis.values.front(); })) {
      continue;
    }
    const bool name = axis.section == "strategy" && axis.key == "name";
    differing.insert(name ? differing.begin() : differing.end(), &axis);
  }
  std::vector<std::string> corner_parts;
  std::vector<std::vector<std::string>> row_parts(rows);
  for (const auto* axis : differing) {
    corner_parts.push_back(axis->key);
    for (std::size_t z = 0; z < rows; ++z) {
      row_parts[z].push_back(axis->values[z]);
    }
  }
  const std::string corner =
      corner_parts.empty() ? "campaign" : join(corner_parts);
  std::vector<std::string> row_labels;
  for (const auto& parts : row_parts) {
    row_labels.push_back(parts.empty() ? spec.name : join(parts));
  }

  // Column labels: the grid values of each combination.
  std::vector<std::string> axis_names;
  for (const auto& axis : spec.grid) {
    axis_names.push_back(axis.section + "." + axis.key);
  }
  std::vector<std::string> col_labels;
  for (std::size_t g = 0; g < combos; ++g) {
    const std::vector<std::size_t> pick = grid_pick(spec, g);
    std::vector<std::string> parts;
    for (std::size_t a = 0; a < spec.grid.size(); ++a) {
      parts.push_back(spec.grid[a].values[pick[a]]);
    }
    col_labels.push_back(parts.empty() ? "mean" : join(parts));
  }
  const std::string columns =
      axis_names.empty() ? "" : " by " + join(axis_names);

  // Rows are zip rows; `value(z, c)` fills column c of row z.
  const auto table = [&](const std::string& heading,
                         const std::vector<std::string>& header,
                         const auto& value) {
    std::vector<std::vector<std::string>> cells{{corner}};
    cells[0].insert(cells[0].end(), header.begin(), header.end());
    for (std::size_t z = 0; z < rows; ++z) {
      cells.push_back({row_labels[z]});
      for (std::size_t c = 0; c < header.size(); ++c) {
        cells.back().push_back(value(z, c));
      }
    }
    print(out, heading, cells);
  };

  for (const auto& metric : spec.report.metrics) {
    table(metric + columns + " (mean over seeds):", col_labels,
          [&](std::size_t z, std::size_t g) {
            return cell(by_point[z * combos + g], metric);
          });
  }
  const auto& scorecard = spec.report.scorecard;
  if (scorecard.empty()) return;
  const std::string at =
      axis_names.empty() ? ""
                         : " at " + join(axis_names) + "=" + col_labels.back();
  table("scorecard" + at + " (mean over seeds):", scorecard,
        [&](std::size_t z, std::size_t m) {
          return cell(by_point[z * combos + combos - 1], scorecard[m]);
        });
}

}  // namespace roadrunner::campaign
