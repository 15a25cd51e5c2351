// The traced run: per-layer numbers taken from outside the program, by
// timing calls into each module's public functions on the workload's own
// inputs, with the Chrome trace written through telemetry::TraceSession.
#pragma once

#include <string>
#include <vector>

#include "report.hpp"
#include "workload.hpp"

namespace ledger {

/// Measures every per-layer metric of `workload` and writes the Chrome
/// trace to `trace_path`. `tally` counts the runs made and their output
/// checks; `scratch_dir` holds snapshots and result stores meanwhile.
std::vector<Metric> measure_layers(const Workload& workload,
                                   const std::string& trace_path,
                                   const std::string& scratch_dir,
                                   Tally& tally);

}  // namespace ledger
