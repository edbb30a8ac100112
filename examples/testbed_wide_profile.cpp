// All-experiment mode: the testbed-wide weekly profile of Section 8.2.
//
// Runs Patchwork across every production site of the federation — port
// cycling with the busiest-bias heuristic, iterative back-off where NICs
// are scarce, congestion detection at oversubscribed mirrors — then runs
// the full Digest -> Index -> Analyze -> Process pipeline and prints the
// profile. This is the program behind Figures 11-13 and 15.
//
// Build & run:  ./build/examples/testbed_wide_profile [--scrape-port N]
//
// Alongside the printed profile it writes the run's self-telemetry next to
// the output: patchwork_manifest.json (seed, config, per-stage timings,
// final counters) and patchwork_metrics.prom (Prometheus text exposition).
// With --scrape-port N (or PATCHWORK_SCRAPE=port) the same exposition is
// additionally served live at http://127.0.0.1:N/metrics — plus /healthz
// and /manifest.json — while the run progresses; with
// PATCHWORK_TRACE=path[:capacity] the run leaves a per-worker flight
// recorder timeline at `path` (Chrome trace-event JSON, open in Perfetto).
#include <cstdlib>
#include <iostream>
#include <memory>
#include <set>
#include <string>

#include "analysis/pipeline.hpp"
#include "core/coordinator.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/scrape_server.hpp"
#include "obs/trace.hpp"
#include "sim/clock.hpp"
#include "telemetry/mflib.hpp"
#include "testbed/federation.hpp"
#include "traffic/engine.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace patchwork;

int main(int argc, char** argv) {
  constexpr std::uint64_t kSeed = 2024;
  obs::registry().reset();  // Metrics below describe this run only.

  int scrape_port = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scrape-port" && i + 1 < argc) {
      scrape_port = std::atoi(argv[++i]);
    } else {
      std::cerr << "usage: testbed_wide_profile [--scrape-port N]\n";
      return 2;
    }
  }
  // Manifest identity is fixed up front so the live /manifest.json route
  // can serve it mid-run; the same info feeds the end-of-run file write.
  obs::ManifestInfo info;
  info.seed = kSeed;
  info.config = {
      {"policy", "busiest_bias"},
      {"cycles", "3"},
      {"samples_per_run", "2"},
      {"max_frames_per_sample", "2000"},
      {"capture_method", "fpga_dpdk"},
      {"snaplen", "200"},
  };
  info.notes.push_back("testbed_wide_profile example (Section 8.2)");

  const auto manifest_provider = [info] { return obs::render_manifest(info); };
  std::unique_ptr<obs::ScrapeServer> scrape;
  if (scrape_port >= 0 && scrape_port <= 65535) {
    obs::ScrapeServerOptions scrape_options;
    scrape_options.port = static_cast<std::uint16_t>(scrape_port);
    scrape_options.manifest = manifest_provider;
    scrape = std::make_unique<obs::ScrapeServer>(std::move(scrape_options));
    if (!scrape->ok()) {
      std::cerr << "cannot bind scrape port " << scrape_port << "\n";
      return 1;
    }
  } else {
    scrape = obs::maybe_start_scrape_server_from_env(manifest_provider);
  }
  if (scrape) {
    std::cout << "scrape endpoint: http://127.0.0.1:" << scrape->port()
              << "/metrics\n";
  }
  obs::trace::configure_from_env();

  util::Rng rng(kSeed);
  testbed::Federation fed = testbed::make_fabric_like_federation(rng);
  testbed::ActivityModel activity;
  telemetry::MfLib mflib(fed);
  traffic::TrafficEngine traffic(
      fed, activity, traffic::make_site_profiles(rng, fed.site_count()),
      rng.fork());
  sim::Clock clock;
  core::Environment env(clock, fed, mflib, traffic, rng);
  env.advance(11 * util::kMinute);

  core::ProfilerConfig config;
  config.plan.policy = core::PortPolicy::kBusiestBias;  // The default.
  config.plan.busiest_bias_n = 4;
  config.plan.cycles = 3;
  config.plan.samples_per_run = 2;
  config.plan.max_frames_per_sample = 2000;
  config.capture.snaplen = 200;
  config.capture.method = capture::CaptureMethod::kFpgaDpdk;
  config.capture.cores = 5;
  config.capture.anonymize = true;  // Close-to-source anonymization.

  core::Coordinator coordinator(env, config);
  const core::ProfileRun run = coordinator.run_all_experiment();

  std::cout << "Deployment over " << run.reports.size()
            << " production sites:\n"
            << "  success "
            << run.outcome_count(core::RunOutcome::kSuccess) << ", degraded "
            << run.outcome_count(core::RunOutcome::kDegraded) << ", failed "
            << run.outcome_count(core::RunOutcome::kFailed)
            << ", incomplete "
            << run.outcome_count(core::RunOutcome::kIncomplete) << "\n"
            << "  " << run.captures.size() << " samples gathered\n\n";

  // The offline phase fans out across PATCHWORK_THREADS workers (0 = serial);
  // output is byte-identical either way.
  std::cout << "Offline pipeline workers: " << util::thread_count() << "\n\n";
  const analysis::ProfileReport report = analysis::run_pipeline(run.captures);

  std::cout << "=== Testbed network profile ===\n";
  util::TextTable headline({"Metric", "Value", "Paper anchor"});
  headline.add_row({"Frames", std::to_string(report.digest_stats.frames),
                    "-"});
  headline.add_row(
      {"1519-2047 B share",
       util::fmt_percent(report.frame_sizes.fraction_in(1519), 1), "74.7%"});
  headline.add_row(
      {"65-127 B share",
       util::fmt_percent(report.frame_sizes.fraction_in(65), 1), "14.15%"});
  headline.add_row(
      {"IPv6 share",
       util::fmt_double(report.header_occurrence.percent(net::Protocol::kIpv6),
                        2),
       "1.93%"});
  headline.add_row(
      {"TCP occurrence",
       util::fmt_double(report.header_occurrence.percent(net::Protocol::kTcp),
                        1),
       "dominant"});
  headline.add_row({"Distinct flows",
                    std::to_string(report.distinct_flows), "-"});
  headline.print(std::cout);

  std::cout << "\nPer-site variety (Fig. 11 shape):\n";
  util::TextTable variety({"Site", "Distinct headers", "Deepest stack"});
  for (const auto& site : report.site_loads) {
    variety.add_row({site.site, std::to_string(site.distinct_headers),
                     std::to_string(site.deepest_stack)});
  }
  variety.print(std::cout);

  std::cout << "\nCongestion warnings logged during sampling: ";
  std::size_t congestion = 0;
  for (const auto& c : run.captures) {
    if (c.switch_drops_suspected > 0) ++congestion;
  }
  std::cout << congestion << " of " << run.captures.size() << " samples\n";

  const bool manifest_ok =
      obs::write_manifest("patchwork_manifest.json", info);
  const bool metrics_ok = obs::expose_to_file("patchwork_metrics.prom");
  std::cout << "\nSelf-telemetry: "
            << (manifest_ok ? "patchwork_manifest.json" : "(manifest FAILED)")
            << ", "
            << (metrics_ok ? "patchwork_metrics.prom" : "(metrics FAILED)")
            << "\n";
  if (obs::trace::write_env_configured()) {
    std::cout << "wrote " << obs::trace::env_configured_path()
              << " (Chrome trace-event JSON; open in Perfetto)\n";
  }
  return manifest_ok && metrics_ok ? 0 : 1;
}
