#include "core/profiler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "testing/env_fixture.hpp"

namespace patchwork::core {
namespace {

using patchwork::testing::World;

ProfilerConfig quick_config() {
  ProfilerConfig config;
  config.plan.cycles = 2;
  config.plan.samples_per_run = 1;
  config.plan.runs_per_cycle = 1;
  config.plan.sample_interval = 5 * util::kMinute;
  config.plan.max_frames_per_sample = 300;
  config.crash_probability = 0.0;
  config.capture.method = capture::CaptureMethod::kFpgaDpdk;
  config.capture.cores = 5;
  return config;
}

TEST(SiteProfiler, SetupGrantsInstancesAndMirrorSlots) {
  World world(1);
  world.warm_up_telemetry();
  SiteProfiler profiler(world.env, testbed::SiteId{0}, quick_config());
  const SetupResult setup = profiler.setup();
  ASSERT_TRUE(setup.ok);
  EXPECT_GT(setup.instances_granted, 0u);
  EXPECT_EQ(setup.backoffs_used, 0u);
  // Each instance's dedicated NIC is dual-port.
  EXPECT_EQ(profiler.monitored_port_slots(), 2 * setup.instances_granted);
  EXPECT_GT(profiler.storage_budget(), 0u);
}

TEST(SiteProfiler, SetupFailsOnTeachingSite) {
  World world(1);
  // Find the teaching site (no dedicated NICs).
  for (testbed::SiteId id : world.fed.site_ids()) {
    if (!world.fed.site(id).teaching_only()) continue;
    SiteProfiler profiler(world.env, id, quick_config());
    const SetupResult setup = profiler.setup();
    EXPECT_FALSE(setup.ok);
    EXPECT_EQ(setup.error, testbed::AllocError::kNoDedicatedNic);
    EXPECT_EQ(profiler.run(), RunOutcome::kFailed);
    return;
  }
  FAIL() << "no teaching site";
}

TEST(SiteProfiler, BackoffShrinksRequestUnderScarcity) {
  World world(2);
  world.warm_up_telemetry();
  // Pre-allocate all but one dedicated NIC to someone else, then ask for
  // more instances than can fit.
  testbed::Site& site = world.fed.site(testbed::SiteId{0});
  auto nics = site.available_nics(testbed::NicKind::kDedicatedConnectX);
  ASSERT_GE(nics.size(), 2u);
  for (std::size_t i = 0; i + 1 < nics.size(); ++i) {
    site.mutable_nic(nics[i]).allocated_to = testbed::SliceId{999};
  }
  ProfilerConfig config = quick_config();
  config.desired_instances = 3;
  config.max_backoffs = 5;
  SiteProfiler profiler(world.env, testbed::SiteId{0}, config);
  const SetupResult setup = profiler.setup();
  ASSERT_TRUE(setup.ok);
  EXPECT_EQ(setup.instances_granted, 1u);
  EXPECT_EQ(setup.backoffs_used, 2u);
  // Scaled-down completion counts as degraded, not success (Fig. 10).
  EXPECT_EQ(profiler.run(), RunOutcome::kDegraded);
}

TEST(SiteProfiler, RunProducesCapturesWithLogs) {
  World world(3);
  world.warm_up_telemetry();
  SiteProfiler profiler(world.env, testbed::SiteId{1}, quick_config());
  ASSERT_TRUE(profiler.setup().ok);
  const RunOutcome outcome = profiler.run();
  EXPECT_EQ(outcome, RunOutcome::kSuccess);
  // Render every pending sample on its own substream, as the coordinator
  // does, then hand the captures back.
  const util::Rng root(12345);
  std::vector<analysis::RawCapture> rendered;
  for (std::size_t k = 0; k < profiler.pending_sample_count(); ++k) {
    util::Rng sample_rng = root.split(k);
    rendered.push_back(profiler.render_sample(k, sample_rng));
  }
  profiler.commit_rendered(std::move(rendered));
  auto captures = profiler.gather();
  ASSERT_FALSE(captures.empty());
  for (const auto& c : captures) {
    EXPECT_EQ(c.site, world.fed.site(testbed::SiteId{1}).name());
    EXPECT_EQ(c.duration, quick_config().plan.sample_duration);
    EXPECT_FALSE(c.pcap.empty());
  }
  // The instance log went along with the first capture.
  EXPECT_GT(captures.front().logs.records().size(), 0u);
  profiler.teardown();
}

TEST(SiteProfiler, MirrorsActiveDuringRunAndClearedByTeardown) {
  World world(4);
  world.warm_up_telemetry();
  SiteProfiler profiler(world.env, testbed::SiteId{2}, quick_config());
  ASSERT_TRUE(profiler.setup().ok);
  profiler.run();
  testbed::Site& site = world.fed.site(testbed::SiteId{2});
  EXPECT_FALSE(site.tor().mirrors().empty());
  profiler.teardown();
  EXPECT_TRUE(site.tor().mirrors().empty());
  // NICs returned.
  EXPECT_GT(site.count_available_nics(testbed::NicKind::kDedicatedConnectX),
            0u);
}

TEST(SiteProfiler, CrashProbabilityYieldsIncomplete) {
  World world(5);
  world.warm_up_telemetry();
  ProfilerConfig config = quick_config();
  config.crash_probability = 1.0;
  SiteProfiler profiler(world.env, testbed::SiteId{0}, config);
  ASSERT_TRUE(profiler.setup().ok);
  EXPECT_EQ(profiler.run(), RunOutcome::kIncomplete);
  EXPECT_GT(profiler.log().count_containing("watchdog"), 0u);
}

TEST(SiteProfiler, PortCyclingChangesMirroredPorts) {
  World world(6);
  world.warm_up_telemetry();
  ProfilerConfig config = quick_config();
  config.plan.cycles = 4;
  config.desired_instances = 1;
  SiteProfiler profiler(world.env, testbed::SiteId{1}, config);
  ASSERT_TRUE(profiler.setup().ok);
  profiler.run();
  // The log must show at least one retarget beyond the initial mirrors
  // (two slots, four cycles: cycling should move at least once).
  EXPECT_GE(profiler.log().count_containing("cycle: mirroring"), 3u);
  profiler.teardown();
}

TEST(SiteProfiler, SamplesRecordOfferedAndCaptured) {
  World world(7);
  world.warm_up_telemetry();
  SiteProfiler profiler(world.env, testbed::SiteId{3}, quick_config());
  ASSERT_TRUE(profiler.setup().ok);
  profiler.run();
  EXPECT_GT(profiler.log().count_containing("sample c"), 0u);
}

}  // namespace
}  // namespace patchwork::core
