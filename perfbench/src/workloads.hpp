// The three workloads.  Each runs for RunConfig::seconds, checks every
// result against an oracle outside its timed region, and fills the
// end-to-end metrics (untraced) or the per-layer metrics (traced: half the
// time untraced, half traced, so the tracing overhead is measured in-run).
#pragma once

#include "common.hpp"

namespace perfbench {

RunResult run_solve_nu22(const RunConfig& config);
RunResult run_serve_mix(const RunConfig& config);
RunResult run_dist_r4(const RunConfig& config);

/// Computed bytes one banded right-formulation mat-vec moves at chain
/// length `nu` under the default plan: each band reads and writes the
/// vector once, and the first band also reads the fitness diagonal.
double banded_matvec_bytes(unsigned nu);

/// Metric stores that take their units from the canonical lists.
inline void set(Metrics& metrics, const std::string& name, double value) {
  metrics[name].value = value;
}

}  // namespace perfbench
