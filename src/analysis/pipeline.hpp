// End-to-end offline analysis pipeline (Fig. 9):
//   gathered captures -> Digest -> Analyze -> Process (CSV).
//
// This is the phase that runs *outside* the testbed, after the coordinator
// has downloaded the compressed captures and logs. The paper's Index step
// locates a site's acap files among "dozens of gigabytes"; here every file
// is in memory and read once, and the Analyze fold's per-site state does
// that job.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/analyses.hpp"
#include "analysis/digest.hpp"

namespace patchwork::analysis {

struct ProfileReport : ProfileAnalysis {
  DigestStats digest_stats;
  /// CSV outputs of the Process step, keyed by file name.
  std::map<std::string, std::string> csv_files;
};

/// Run the full pipeline over a gathered profile.
ProfileReport run_pipeline(const std::vector<RawCapture>& captures);

/// Digest only (for callers that analyze the files themselves).
struct DigestedProfile {
  std::vector<AcapFile> files;
  DigestStats stats;
};
DigestedProfile digest_profile(const std::vector<RawCapture>& captures);

}  // namespace patchwork::analysis
