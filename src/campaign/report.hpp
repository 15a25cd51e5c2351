// Campaign report: the strategy x condition tables a campaign INI asks for
// in its `[report]` section (paper Req. 5: compare strategies under every
// condition), rendered from the per-point aggregate. Rows and columns come
// from the spec's axes, so a new sweep needs an INI, not a new binary:
//
//   * rows: one per `[sweep.zip]` row, labelled by the zip-axis values that
//     differ between rows, joined with '/' (e.g. `federated/median`);
//   * columns: one per `[sweep]` grid combination (point index =
//     zip_row * grid_combos + g, as expand() lays points out);
//   * cells: the mean over seeds, or "-" for a missing point or metric.
#pragma once

#include <iosfwd>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/spec.hpp"

namespace roadrunner::campaign {

/// Writes one table per `spec.report.metrics` entry, then, when
/// `spec.report.scorecard` is set, one table of zip rows x scorecard
/// metrics at the last grid combination. Writes nothing when the spec has
/// no report. A pure function of its arguments.
void write_report(std::ostream& out, const CampaignSpec& spec,
                  const std::vector<PointSummary>& summaries);

}  // namespace roadrunner::campaign
