#include "core/coordinator.hpp"

#include <gtest/gtest.h>

#include <set>

#include "analysis/analyses.hpp"
#include "testing/env_fixture.hpp"

namespace patchwork::core {
namespace {

using patchwork::testing::World;

ProfilerConfig tiny_config() {
  ProfilerConfig config;
  config.plan.cycles = 1;
  config.plan.samples_per_run = 1;
  config.plan.runs_per_cycle = 1;
  config.plan.max_frames_per_sample = 150;
  config.crash_probability = 0.0;
  config.desired_instances = 1;
  config.capture.method = capture::CaptureMethod::kFpgaDpdk;
  config.capture.cores = 5;
  return config;
}

testbed::FederationSpec small_spec() {
  testbed::FederationSpec spec;
  spec.sites = 6;
  return spec;
}

TEST(Coordinator, AllExperimentSkipsTeachingSite) {
  World world(1, small_spec());
  world.warm_up_telemetry();
  Coordinator coordinator(world.env, tiny_config());
  const ProfileRun run = coordinator.run_all_experiment();
  // One report per production site; the teaching site is skipped.
  EXPECT_EQ(run.reports.size(), world.fed.site_count() - 1);
  for (const SiteRunReport& r : run.reports) {
    EXPECT_FALSE(world.fed.site(r.site).teaching_only());
  }
}

TEST(Coordinator, SuccessfulRunGathersCaptures) {
  World world(2, small_spec());
  world.warm_up_telemetry();
  Coordinator coordinator(world.env, tiny_config());
  const ProfileRun run = coordinator.run_all_experiment();
  EXPECT_GT(run.success_fraction(), 0.5);
  EXPECT_FALSE(run.captures.empty());
  std::set<std::string> sites;
  for (const auto& c : run.captures) sites.insert(c.site);
  EXPECT_GT(sites.size(), 1u);  // Multiple sites contributed.
}

TEST(Coordinator, ResourcesYieldedAfterRun) {
  World world(3, small_spec());
  world.warm_up_telemetry();
  std::vector<std::size_t> before;
  for (testbed::SiteId id : world.fed.site_ids()) {
    before.push_back(world.fed.site(id).count_available_nics(
        testbed::NicKind::kDedicatedConnectX));
  }
  Coordinator coordinator(world.env, tiny_config());
  coordinator.run_all_experiment();
  for (testbed::SiteId id : world.fed.site_ids()) {
    EXPECT_EQ(world.fed.site(id).count_available_nics(
                  testbed::NicKind::kDedicatedConnectX),
              before[id.value])
        << "site " << id.value;
    EXPECT_TRUE(world.fed.site(id).tor().mirrors().empty());
  }
}

TEST(Coordinator, RunOnSitesRestrictsScope) {
  World world(4, small_spec());
  world.warm_up_telemetry();
  Coordinator coordinator(world.env, tiny_config());
  const ProfileRun run =
      coordinator.run_on_sites({testbed::SiteId{0}, testbed::SiteId{2}});
  EXPECT_EQ(run.reports.size(), 2u);
  for (const auto& c : run.captures) {
    EXPECT_TRUE(c.site == world.fed.site(testbed::SiteId{0}).name() ||
                c.site == world.fed.site(testbed::SiteId{2}).name());
  }
}

TEST(Coordinator, SingleExperimentOnlySeesSlicePorts) {
  World world(5, small_spec());
  world.warm_up_telemetry();
  // The "slice" uses two specific downlink ports at site 1.
  const std::vector<testbed::GlobalPortId> slice_ports = {
      {testbed::SiteId{1}, testbed::PortId{4}},
      {testbed::SiteId{1}, testbed::PortId{5}},
  };
  Coordinator coordinator(world.env, tiny_config());
  const ProfileRun run = coordinator.run_single_experiment(slice_ports);
  EXPECT_EQ(run.mode, ProfileMode::kSingleExperiment);
  EXPECT_EQ(run.reports.size(), 1u);
  ASSERT_FALSE(run.captures.empty());
  for (const auto& c : run.captures) {
    EXPECT_TRUE(c.port == 4 || c.port == 5) << c.port;
  }
}

TEST(Coordinator, OutcomeCountsAndSuccessFraction) {
  ProfileRun run;
  SiteRunReport ok;
  ok.outcome = RunOutcome::kSuccess;
  SiteRunReport degraded;
  degraded.outcome = RunOutcome::kDegraded;
  SiteRunReport failed;
  failed.outcome = RunOutcome::kFailed;
  run.reports = {ok, ok, degraded, failed};
  EXPECT_EQ(run.outcome_count(RunOutcome::kSuccess), 2u);
  EXPECT_EQ(run.outcome_count(RunOutcome::kDegraded), 1u);
  EXPECT_DOUBLE_EQ(run.success_fraction(), 0.75);
}

TEST(Coordinator, CompressedTransfersShrinkAndRoundTrip) {
  World world(7, small_spec());
  world.warm_up_telemetry();
  ProfilerConfig config = tiny_config();
  config.plan.max_frames_per_sample = 2000;  // Enough bytes to compress.
  config.compress_transfers = true;
  Coordinator coordinator(world.env, config);
  const ProfileRun run = coordinator.run_on_sites({testbed::SiteId{0}});
  ASSERT_EQ(run.reports.size(), 1u);
  const SiteRunReport& report = run.reports.front();
  ASSERT_GT(report.pcap_bytes, 0u);
  // Truncated-header pcaps compress well; the download moved fewer bytes.
  EXPECT_LT(report.transferred_bytes, report.pcap_bytes);
  // And the decompressed captures still digest cleanly.
  const analysis::DigestStats stats =
      analysis::analyze(run.captures).digest_stats;
  EXPECT_GT(stats.frames, 0u);
  EXPECT_EQ(stats.bad_records, 0u);
}

TEST(Coordinator, UncompressedTransfersMatchPcapBytes) {
  World world(8, small_spec());
  world.warm_up_telemetry();
  ProfilerConfig config = tiny_config();
  config.compress_transfers = false;
  Coordinator coordinator(world.env, config);
  const ProfileRun run = coordinator.run_on_sites({testbed::SiteId{1}});
  ASSERT_EQ(run.reports.size(), 1u);
  EXPECT_EQ(run.reports.front().transferred_bytes,
            run.reports.front().pcap_bytes);
}

TEST(Coordinator, ReportsCarrySampleAccounting) {
  World world(6, small_spec());
  world.warm_up_telemetry();
  Coordinator coordinator(world.env, tiny_config());
  const ProfileRun run = coordinator.run_all_experiment();
  for (const SiteRunReport& r : run.reports) {
    if (r.outcome == RunOutcome::kSuccess ||
        r.outcome == RunOutcome::kDegraded) {
      EXPECT_GT(r.samples, 0u) << r.site_name;
      EXPECT_GT(r.pcap_bytes, 0u) << r.site_name;
    }
  }
}

}  // namespace
}  // namespace patchwork::core
