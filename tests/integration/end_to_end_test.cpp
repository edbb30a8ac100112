// End-to-end integration: traffic generation -> port mirroring -> capture
// -> gathering -> full offline analysis pipeline, exactly the Fig. 7 +
// Fig. 9 flow.
#include <gtest/gtest.h>

#include "analysis/pipeline.hpp"
#include "core/coordinator.hpp"
#include "testing/env_fixture.hpp"

namespace patchwork {
namespace {

using patchwork::testing::World;

core::ProfilerConfig e2e_config() {
  core::ProfilerConfig config;
  config.plan.cycles = 2;
  config.plan.samples_per_run = 2;
  config.plan.max_frames_per_sample = 400;
  config.crash_probability = 0.0;
  config.capture.method = capture::CaptureMethod::kFpgaDpdk;
  config.capture.cores = 5;
  config.capture.snaplen = 200;
  return config;
}

testbed::FederationSpec small_spec() {
  testbed::FederationSpec spec;
  spec.sites = 5;
  return spec;
}

TEST(EndToEnd, ProfileThenAnalyze) {
  World world(11, small_spec());
  world.warm_up_telemetry();
  core::Coordinator coordinator(world.env, e2e_config());
  const core::ProfileRun run = coordinator.run_all_experiment();
  ASSERT_FALSE(run.captures.empty());

  const analysis::ProfileReport report =
      analysis::run_pipeline(run.captures);
  // The pipeline saw real frames with real header stacks.
  EXPECT_GT(report.digest_stats.frames, 100u);
  EXPECT_GT(report.distinct_flows, 10u);
  EXPECT_GT(report.header_occurrence.percent(net::Protocol::kEthernet),
            99.0);
  // Snaplen 200 never cuts into the underlay headers of generated
  // traffic: no malformed frames.
  EXPECT_EQ(report.digest_stats.malformed_frames, 0u);
  // Site variety covers the sampled sites.
  EXPECT_GE(report.site_loads.size(), 2u);
  // Every CSV materialized.
  EXPECT_EQ(report.csv_files.size(), 10u);
}

TEST(EndToEnd, TruncationPreservesHeadersMostOfTheTime) {
  World world(12, small_spec());
  world.warm_up_telemetry();
  core::ProfilerConfig config = e2e_config();
  config.capture.snaplen = 200;  // The paper's profiling truncation.
  core::Coordinator coordinator(world.env, config);
  const core::ProfileRun run = coordinator.run_all_experiment();
  const analysis::ProfileReport report =
      analysis::run_pipeline(run.captures);
  ASSERT_GT(report.digest_stats.frames, 0u);
  // 200 B keeps the full stack for almost all frames (jumbo payloads are
  // cut, headers are not).
  const double truncated_fraction =
      static_cast<double>(report.digest_stats.truncated_frames) /
      static_cast<double>(report.digest_stats.frames);
  EXPECT_LT(truncated_fraction, 0.05);
}

TEST(EndToEnd, AnonymizedProfileStillClassifiesFlows) {
  World world(13, small_spec());
  world.warm_up_telemetry();
  core::ProfilerConfig config = e2e_config();
  config.capture.anonymize = true;
  core::Coordinator coordinator(world.env, config);
  const core::ProfileRun run = coordinator.run_all_experiment();
  const analysis::ProfileReport report =
      analysis::run_pipeline(run.captures);
  EXPECT_GT(report.digest_stats.frames, 0u);
  EXPECT_GT(report.distinct_flows, 5u);
}

TEST(EndToEnd, SwitchCongestionSurfacesInSampleMetadata) {
  World world(14, small_spec());
  // Pin every port of site 0 at line rate: Tx + Rx = 1.55x the 100G
  // mirror egress, the exact oversubscription mode of Section 6.2.2.
  // A base utilization this high pins even the port's between-burst idle
  // level at line rate, so every telemetry window sees Tx+Rx ~ 155G.
  const auto& tor = world.fed.site(testbed::SiteId{0}).tor();
  for (std::uint32_t p = 0; p < tor.port_count(); ++p) {
    world.traffic.set_base_utilization(
        {testbed::SiteId{0}, testbed::PortId{p}}, 100.0);
  }
  world.warm_up_telemetry();
  core::ProfilerConfig config = e2e_config();
  config.plan.cycles = 1;
  config.plan.samples_per_run = 1;
  core::SiteProfiler profiler(world.env, testbed::SiteId{0}, config);
  ASSERT_TRUE(profiler.setup().ok);
  profiler.run();
  // Congestion warnings were logged (inference from telemetry).
  EXPECT_GT(profiler.log().count_containing("congestion"), 0u);
}

TEST(EndToEnd, CongestionMitigationFallsBackToTxOnly) {
  World world(15, small_spec());
  const auto& tor = world.fed.site(testbed::SiteId{0}).tor();
  for (std::uint32_t p = 0; p < tor.port_count(); ++p) {
    world.traffic.set_base_utilization(
        {testbed::SiteId{0}, testbed::PortId{p}}, 100.0);
  }
  world.warm_up_telemetry();
  core::ProfilerConfig config = e2e_config();
  config.plan.cycles = 1;
  config.plan.samples_per_run = 2;
  config.congestion_mitigation = true;
  core::SiteProfiler profiler(world.env, testbed::SiteId{0}, config);
  ASSERT_TRUE(profiler.setup().ok);
  profiler.run();
  EXPECT_GT(profiler.log().count_containing("mitigated"), 0u);
  // The active mirrors ended up Tx-only.
  testbed::Site& site = world.fed.site(testbed::SiteId{0});
  ASSERT_FALSE(site.tor().mirrors().empty());
  for (const testbed::MirrorSession& s : site.tor().mirrors()) {
    EXPECT_EQ(s.directions, testbed::MirrorDirections::kTxOnly);
    // And the oversubscription is resolved.
    EXPECT_DOUBLE_EQ(site.tor().mirror_delivery_fraction(s), 1.0);
  }
  profiler.teardown();
}

}  // namespace
}  // namespace patchwork
