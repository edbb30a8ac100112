// Single-experiment mode: the paper's Section 1 motivating scenario.
//
// A researcher evaluates a WAN congestion-control algorithm between two
// FABRIC sites (think Amsterdam <-> Tokyo). Their slice owns specific
// switch ports; Patchwork profiles *only those ports* and the researcher
// inspects TCP control behaviour (ACK cadence, RSTs, window sizes) from
// the header capture — without tcpdump bump-in-the-wire hacks.
//
// Build & run:  ./build/examples/single_experiment_profile
#include <iostream>

#include "analysis/pipeline.hpp"
#include "capture/filter.hpp"
#include "core/coordinator.hpp"
#include "sim/clock.hpp"
#include "telemetry/mflib.hpp"
#include "testbed/federation.hpp"
#include "traffic/engine.hpp"
#include "util/table.hpp"

using namespace patchwork;

int main() {
  util::Rng rng(7);
  testbed::Federation fed = testbed::make_fabric_like_federation(rng);
  testbed::ActivityModel activity;
  telemetry::MfLib mflib(fed);
  traffic::TrafficEngine traffic(
      fed, activity, traffic::make_site_profiles(rng, fed.site_count()),
      rng.fork());
  sim::Clock clock;
  core::Environment env(clock, fed, mflib, traffic, rng);

  // The researcher's slice: VMs behind two downlink ports at site 2 and
  // one at site 7 (the transfer's other end). Make the experiment's ports
  // busy — it is running a long bulk transfer.
  const std::vector<testbed::GlobalPortId> slice_ports = {
      {testbed::SiteId{2}, testbed::PortId{5}},
      {testbed::SiteId{2}, testbed::PortId{6}},
      {testbed::SiteId{7}, testbed::PortId{4}},
  };
  for (const auto& port : slice_ports) {
    traffic.set_base_utilization(port, 3.0);  // Pin near line rate.
  }
  env.advance(11 * util::kMinute);

  core::ProfilerConfig config;
  config.plan.samples_per_run = 4;
  config.plan.cycles = 2;
  config.capture.snaplen = 200;
  config.capture.method = capture::CaptureMethod::kFpgaDpdk;
  config.capture.cores = 5;
  // The researcher only cares about their TCP stream, not ARP chatter.
  config.capture.filter =
      std::get<capture::Filter>(capture::Filter::compile("ip and tcp"));

  core::Coordinator coordinator(env, config);
  const core::ProfileRun run = coordinator.run_single_experiment(slice_ports);

  std::cout << "Single-experiment profile over " << run.reports.size()
            << " sites, " << run.captures.size() << " samples\n";
  for (const auto& report : run.reports) {
    std::cout << "  " << report.site_name << ": "
              << to_string(report.outcome) << ", " << report.samples
              << " samples\n";
  }

  const analysis::ProfileReport report = analysis::run_pipeline(run.captures);

  util::TextTable table({"Metric", "Value"});
  table.add_row({"Frames captured",
                 std::to_string(report.digest_stats.frames)});
  table.add_row({"Distinct flows", std::to_string(report.distinct_flows)});
  table.add_row({"TCP frames",
                 std::to_string(report.tcp_control.tcp_frames)});
  table.add_row({"Pure ACKs (congestion feedback)",
                 std::to_string(report.tcp_control.pure_ack)});
  table.add_row({"SYN / FIN / RST",
                 std::to_string(report.tcp_control.syn) + " / " +
                     std::to_string(report.tcp_control.fin) + " / " +
                     std::to_string(report.tcp_control.rst)});
  const double jumbo =
      report.frame_sizes.fraction_at_or_above(archive::kJumboEdgeBytes);
  table.add_row({"Jumbo share", util::fmt_percent(jumbo, 1)});
  std::cout << "\n";
  table.print(std::cout);

  std::cout << "\nNote: every frame here came from the slice's own ports — "
               "single-experiment\nmode never sees other users' traffic "
               "(access control stays with the testbed).\n";
  return 0;
}
