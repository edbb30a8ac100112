// Golden pins on the absolute bytes of the online render.
//
// CoordinatorDeterminism and FlowChurnDeterminism only compare runs with
// each other, so a change that moved every run's bytes the same way would
// pass them. These two small coordinator runs, one shaped like each profile
// workload, pin what the data plane actually emits: the capture count, the
// CRC32 of every pcap concatenated in capture order, and the instance-log
// line count. A refactor of the plan / render / capture path must leave
// them passing unedited.
#include <gtest/gtest.h>

#include <cstdint>
#include <variant>

#include "capture/filter.hpp"
#include "core/coordinator.hpp"
#include "testing/env_fixture.hpp"
#include "util/crc32.hpp"

namespace patchwork::core {
namespace {

using patchwork::testing::World;

struct RunDigest {
  std::size_t captures = 0;
  std::uint32_t pcap_crc32 = 0;
  std::size_t log_lines = 0;
};

/// Runs all-experiment mode on a fresh `sites`-site world. With
/// `saturate_site_1`, every port of site 1 runs at line rate, so its
/// mirrors are oversubscribed and the render's delivery thinning runs.
RunDigest digest_run(const ProfilerConfig& config, std::size_t sites,
                     std::uint64_t seed, bool saturate_site_1 = false) {
  testbed::FederationSpec spec;
  spec.sites = sites;
  World world(seed, spec);
  if (saturate_site_1) {
    const testbed::SiteId hot{1};
    const std::uint32_t ports = world.fed.site(hot).tor().port_count();
    for (std::uint32_t p = 0; p < ports; ++p) {
      world.traffic.set_base_utilization({hot, testbed::PortId{p}}, 2.0);
    }
  }
  world.warm_up_telemetry();
  Coordinator coordinator(world.env, config);
  const ProfileRun run = coordinator.run_all_experiment();
  RunDigest out;
  out.captures = run.captures.size();
  for (const analysis::RawCapture& raw : run.captures) {
    out.pcap_crc32 = util::crc32(raw.pcap, out.pcap_crc32);
    out.log_lines += raw.logs.records().size();
  }
  return out;
}

/// The paper's capture settings at a test-sized frame cap.
ProfilerConfig paper_config() {
  ProfilerConfig config;
  config.allocator.backend_failure_rate = 0.0;
  config.plan.cycles = 2;
  config.plan.samples_per_run = 1;
  config.plan.max_frames_per_sample = 300;
  config.crash_probability = 0.0;
  config.capture.method = capture::CaptureMethod::kFpgaDpdk;
  config.capture.cores = 5;
  config.capture.snaplen = 200;
  return config;
}

TEST(ProfileRunGolden, MixModelOffloadSnaplen200) {
  const RunDigest got = digest_run(paper_config(), /*sites=*/6, /*seed=*/5,
                                   /*saturate_site_1=*/true);
  EXPECT_EQ(got.captures, 64u);
  EXPECT_EQ(got.pcap_crc32, 0x8fdcbbdeu);
  EXPECT_EQ(got.log_lines, 197u);
}

TEST(ProfileRunGolden, EventModelChurnUdpFilterAnonymized) {
  ProfilerConfig config = paper_config();
  config.plan.samples_per_run = 2;
  config.flow_model.model = flowsched::FlowModel::kEvent;
  config.flow_model.flows_per_second = 200;
  config.flow_model.churn_fpm = 600;
  config.capture.filter =
      std::get<capture::Filter>(capture::Filter::compile("udp"));
  config.capture.anonymize = true;
  const RunDigest got = digest_run(config, /*sites=*/4, /*seed=*/9);
  EXPECT_EQ(got.captures, 72u);
  EXPECT_EQ(got.pcap_crc32, 0xd6eefb2au);
  EXPECT_EQ(got.log_lines, 183u);
}

}  // namespace
}  // namespace patchwork::core
