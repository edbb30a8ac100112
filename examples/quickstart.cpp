// Quickstart: the smallest end-to-end Patchwork run.
//
//   1. Build a simulated FABRIC-like federation.
//   2. Run Patchwork in all-experiment mode on one site.
//   3. Feed the gathered pcaps through the offline analysis pipeline.
//   4. Print the headline statistics.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "analysis/pipeline.hpp"
#include "core/coordinator.hpp"
#include "sim/clock.hpp"
#include "telemetry/mflib.hpp"
#include "testbed/federation.hpp"
#include "traffic/engine.hpp"

using namespace patchwork;

int main() {
  // --- 1. The testbed substrate -----------------------------------------
  util::Rng rng(42);
  testbed::Federation fed = testbed::make_fabric_like_federation(rng);
  testbed::ActivityModel activity;
  telemetry::MfLib mflib(fed);
  traffic::TrafficEngine traffic(
      fed, activity, traffic::make_site_profiles(rng, fed.site_count()),
      rng.fork());
  sim::Clock clock;
  core::Environment env(clock, fed, mflib, traffic, rng);
  env.advance(11 * util::kMinute);  // Two SNMP polls so rates exist.

  // --- 2. Configure and run Patchwork ------------------------------------
  core::ProfilerConfig config;
  config.plan.cycles = 2;                 // Cycle mirrored ports twice.
  config.plan.samples_per_run = 3;        // Three 20 s samples per run.
  config.plan.max_frames_per_sample = 4000;  // Keep the demo snappy.
  config.capture.snaplen = 200;           // Keep headers, drop payloads.
  config.capture.method = capture::CaptureMethod::kFpgaDpdk;
  config.capture.cores = 5;

  core::Coordinator coordinator(env, config);
  const core::ProfileRun run =
      coordinator.run_on_sites({testbed::SiteId{0}});

  std::cout << "Gathered " << run.captures.size() << " samples ("
            << run.reports.front().pcap_bytes << " pcap bytes) from site "
            << run.reports.front().site_name << " — outcome: "
            << to_string(run.reports.front().outcome) << "\n";

  // --- 3. Offline analysis ------------------------------------------------
  const analysis::ProfileReport report = analysis::run_pipeline(run.captures);

  // --- 4. Headline numbers ------------------------------------------------
  std::cout << "Frames digested:   " << report.digest_stats.frames << "\n"
            << "Distinct flows:    " << report.distinct_flows << "\n"
            << "Jumbo frames:      "
            << report.frame_sizes.fraction_at_or_above(
                   archive::kJumboEdgeBytes) *
                   100.0
            << "%\n"
            << "IPv4 occurrence:   "
            << report.header_occurrence.percent(net::Protocol::kIpv4)
            << "%\n"
            << "IPv6 occurrence:   "
            << report.header_occurrence.percent(net::Protocol::kIpv6)
            << "%\n"
            << "TCP RST frames:    " << report.tcp_control.rst << "\n";
  std::cout << "\nCSV reports produced by the Process step:\n";
  for (const auto& [name, csv] : report.csv_files) {
    std::cout << "  " << name << " (" << csv.size() << " bytes)\n";
  }
  return 0;
}
