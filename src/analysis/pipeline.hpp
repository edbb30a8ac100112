// End-to-end offline analysis pipeline (Fig. 9):
//   gathered captures -> Digest + Analyze (one pass) -> Process (CSV).
//
// This is the phase that runs *outside* the testbed, after the coordinator
// has downloaded the compressed captures and logs. The paper's Index step
// locates a site's acap files among "dozens of gigabytes"; here every
// capture is in memory and read once, and the Analyze fold's per-site
// state does that job.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/analyses.hpp"
#include "analysis/digest.hpp"

namespace patchwork::analysis {

struct ProfileReport : ProfileAnalysis {
  /// CSV outputs of the Process step, keyed by file name.
  std::map<std::string, std::string> csv_files;
};

/// Run the full pipeline over a gathered profile.
ProfileReport run_pipeline(const std::vector<RawCapture>& captures);

}  // namespace patchwork::analysis
