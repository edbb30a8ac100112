// The Patchwork coordinator (Fig. 7).
//
// Runs outside the testbed: configures Patchwork, starts it on the chosen
// sites (all production sites in all-experiment mode, or the slice's sites
// in single-experiment mode), downloads the samples, and yields resources
// back. Site profilers are independent; a site that fails to allocate does
// not affect the others (requirement R3).
#pragma once

#include <string>
#include <vector>

#include "analysis/digest.hpp"
#include "core/config.hpp"
#include "core/environment.hpp"
#include "core/profiler.hpp"

namespace patchwork::core {

struct SiteRunReport {
  testbed::SiteId site;
  std::string site_name;
  RunOutcome outcome = RunOutcome::kFailed;
  std::uint32_t instances = 0;
  std::uint32_t backoffs = 0;
  std::optional<testbed::AllocError> error;
  std::uint64_t samples = 0;
  std::uint64_t pcap_bytes = 0;
  /// Bytes actually transferred to the coordinator (Section 6.2.3: the
  /// captures are compressed before download).
  std::uint64_t transferred_bytes = 0;
};

/// Everything one coordinator invocation produces: the gathered captures
/// (input to the analysis pipeline) and the per-site deployment reports
/// (the data behind Fig. 10).
struct ProfileRun {
  ProfileMode mode = ProfileMode::kAllExperiment;
  std::vector<analysis::RawCapture> captures;
  std::vector<SiteRunReport> reports;

  std::size_t outcome_count(RunOutcome o) const;
  double success_fraction() const;  ///< Success + degraded, as Fig. 10 counts.
};

class Coordinator {
 public:
  Coordinator(Environment& env, ProfilerConfig config);

  /// All-experiment mode over every production site. Sites restricted to
  /// teaching (EDUKY) are skipped, as in Section 8.1.1.
  ProfileRun run_all_experiment();

  /// All-experiment mode focused on specific sites.
  ProfileRun run_on_sites(const std::vector<testbed::SiteId>& sites);

  /// Single-experiment mode: profile only the switch ports a slice uses.
  /// Patchwork monitors those ports with the fixed-port policy.
  ProfileRun run_single_experiment(
      const std::vector<testbed::GlobalPortId>& slice_ports);

 private:
  ProfileRun run_sites(const std::vector<testbed::SiteId>& sites,
                       ProfileMode mode,
                       const std::vector<testbed::GlobalPortId>* slice_ports);

  Environment& env_;
  ProfilerConfig config_;
};

}  // namespace patchwork::core
