// Terminal line charts: roadrunner_campaign plots a metric over the sweep
// points with them, so a campaign's shape is visible without plotting
// tooling.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace roadrunner::util {

struct PlotSeries {
  std::string label;
  char marker = '*';
  std::vector<std::pair<double, double>> points;  ///< (x, y)
};

struct PlotOptions {
  int width = 72;   ///< plot area columns (excl. axis labels)
  int height = 16;  ///< plot area rows
  double y_min = 0.0;
  /// y_max <= y_min means auto-scale to the data.
  double y_max = 0.0;
};

/// Renders the series into a y-axis-labelled ASCII chart. Points are
/// nearest-cell rasterized; later series overwrite earlier ones where they
/// collide. Returns "" for empty input.
std::string ascii_chart(const std::vector<PlotSeries>& series,
                        const PlotOptions& options = {});

}  // namespace roadrunner::util
