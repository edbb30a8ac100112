// The tentpole contract of the self-telemetry layer: with instrumentation
// enabled and a congested scenario exercising every watched failure path
// (switch-side mirror oversubscription, capture-ring overflow, allocation
// back-off, pool queueing), all deterministic artifacts — pcaps, CSVs, the
// deterministic exposition, and the manifest's deterministic section — are
// byte-identical at thread counts 0/1/2/8.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/pipeline.hpp"
#include "core/coordinator.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "testing/env_fixture.hpp"
#include "testing/temp_dir.hpp"
#include "util/parallel.hpp"

namespace patchwork::core {
namespace {

using patchwork::testing::World;

struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_thread_count(std::nullopt); }
};

constexpr std::uint64_t kSeed = 2;

ProfilerConfig congested_config() {
  ProfilerConfig config;
  config.plan.cycles = 2;
  config.plan.samples_per_run = 2;
  config.plan.runs_per_cycle = 1;
  config.plan.max_frames_per_sample = 300;
  config.crash_probability = 0.0;
  config.compress_transfers = true;
  // Ask for more instances than the scarce site can grant -> back-off.
  config.desired_instances = 3;
  config.max_backoffs = 5;
  // Default kTcpdump capture: a mirrored 100G-class stream into a
  // single-threaded kernel path guarantees ring-capacity drops.
  return config;
}

obs::ManifestInfo manifest_info() {
  obs::ManifestInfo info;
  info.seed = kSeed;
  info.config = {{"sites", "4"},
                 {"cycles", "2"},
                 {"samples_per_run", "2"},
                 {"capture_method", "tcpdump"}};
  info.notes = {"congested integration scenario"};
  return info;
}

struct RunArtifacts {
  ProfileRun run;
  analysis::ProfileReport report;
  std::string expose_deterministic;
  std::string manifest_deterministic;
};

/// One full run against a fresh congested world: site 0 is made
/// NIC-scarce (forces allocation back-off) and one of its ports carries
/// 60+50 Gbps (forces mirror oversubscription and capture-ring loss once
/// port cycling mirrors the top talker).
RunArtifacts run_congested_world() {
  obs::registry().reset();
  World world(kSeed, [] {
    testbed::FederationSpec spec;
    spec.sites = 8;
    return spec;
  }());

  testbed::Site& site = world.fed.site(testbed::SiteId{0});
  auto nics = site.available_nics(testbed::NicKind::kDedicatedConnectX);
  EXPECT_GE(nics.size(), 2u);
  for (std::size_t i = 0; i + 1 < nics.size(); ++i) {
    site.mutable_nic(nics[i]).allocated_to = testbed::SliceId{999};
  }
  site.tor().mutable_port(testbed::PortId{0}).set_rates(60e9, 50e9);

  world.warm_up_telemetry();

  Coordinator coordinator(world.env, congested_config());
  RunArtifacts out;
  out.run = coordinator.run_on_sites({testbed::SiteId{0}, testbed::SiteId{1},
                                      testbed::SiteId{2},
                                      testbed::SiteId{3}});
  out.report = analysis::run_pipeline(out.run.captures);
  out.expose_deterministic = obs::expose_text(/*deterministic_only=*/true);
  out.manifest_deterministic =
      obs::manifest_deterministic_section(manifest_info());
  return out;
}

std::optional<obs::Registry::SeriesValue> find_series(
    const std::string& name, const std::string& label_fragment = "") {
  for (const obs::Registry::SeriesValue& v :
       obs::registry().snapshot_values()) {
    if (v.name != name) continue;
    if (!label_fragment.empty() &&
        v.labels.find(label_fragment) == std::string::npos) {
      continue;
    }
    return v;
  }
  return std::nullopt;
}

TEST(ObsDeterminism, CongestedRunByteIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;

  util::set_thread_count(0);  // Serial reference.
  const RunArtifacts reference = run_congested_world();
  ASSERT_FALSE(reference.run.captures.empty());

  // The congested scenario lights up every watched metric (checked on the
  // serial run; the counters are deterministic, so any thread count sees
  // the same values).
  const auto ring = find_series("patchwork_capture_dropped_frames_total",
                                "ring_capacity");
  ASSERT_TRUE(ring.has_value());
  EXPECT_GT(ring->count, 0u) << "no capture-ring drops under congestion";
  const auto mirror = find_series("patchwork_mirror_dropped_frames_total");
  ASSERT_TRUE(mirror.has_value());
  EXPECT_GT(mirror->count, 0u) << "no switch-side mirror drops";
  const auto backoffs = find_series("patchwork_profiler_backoffs_total");
  ASSERT_TRUE(backoffs.has_value());
  EXPECT_GT(backoffs->count, 0u) << "no allocation back-off";
  const auto oversub =
      find_series("patchwork_mirror_oversubscribed_intervals_total");
  ASSERT_TRUE(oversub.has_value());
  EXPECT_GT(oversub->count, 0u);

  // The capture inner loop is span-covered per sample window: the kernel
  // path drains the ring, filters, then truncates/anonymizes. Run counts
  // are deterministic (one per sample window), so these families are part
  // of the byte-compared exposition.
  for (const char* stage :
       {"session/drain", "session/filter", "session/anonymize"}) {
    const auto span = find_series("patchwork_stage_runs_total", stage);
    ASSERT_TRUE(span.has_value()) << stage;
    EXPECT_GT(span->count, 0u) << stage;
  }

  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::set_thread_count(threads);
    const RunArtifacts parallel = run_congested_world();
    const std::string label = "threads=" + std::to_string(threads);

    // Artifact identity: pcap bytes, CSV bytes, deterministic exposition,
    // deterministic manifest section.
    ASSERT_EQ(reference.run.captures.size(), parallel.run.captures.size())
        << label;
    for (std::size_t i = 0; i < reference.run.captures.size(); ++i) {
      EXPECT_TRUE(reference.run.captures[i].pcap ==
                  parallel.run.captures[i].pcap)
          << label << " pcap " << i << " differs";
    }
    ASSERT_EQ(reference.report.csv_files.size(),
              parallel.report.csv_files.size())
        << label;
    for (const auto& [name, bytes] : reference.report.csv_files) {
      ASSERT_TRUE(parallel.report.csv_files.count(name)) << label << name;
      EXPECT_EQ(bytes, parallel.report.csv_files.at(name))
          << label << " " << name << " differs";
    }
    EXPECT_EQ(reference.expose_deterministic, parallel.expose_deterministic)
        << label << ": deterministic exposition differs";
    EXPECT_EQ(reference.manifest_deterministic,
              parallel.manifest_deterministic)
        << label << ": manifest deterministic section differs";

    if (threads >= 2) {
      // With real workers, the render fan-out must have queued work: the
      // high-water mark samples at enqueue time, so it is >= 1 whenever
      // any task waited behind a worker.
      const auto queue_high =
          find_series("patchwork_pool_queue_depth_high_water");
      ASSERT_TRUE(queue_high.has_value()) << label;
      EXPECT_GT(queue_high->gauge, 0.0) << label;
    }
  }
}

TEST(ObsDeterminism, ManifestWritesNextToProfileOutput) {
  ThreadCountGuard guard;
  util::set_thread_count(2);
  const RunArtifacts artifacts = run_congested_world();

  const patchwork::testing::TestTempDir tmp;
  const std::string path = tmp.path("patchwork_run_manifest.json");
  ASSERT_TRUE(obs::write_manifest(path, manifest_info()));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());

  // The file embeds the deterministic section verbatim, carries the build
  // identity, and separates schedule-dependent data into wall_clock.
  EXPECT_NE(content.find(artifacts.manifest_deterministic),
            std::string::npos);
  EXPECT_NE(content.find("\"git_describe\": "), std::string::npos);
  EXPECT_NE(content.find("\"wall_clock\": {"), std::string::npos);
  EXPECT_NE(content.find("\"thread_count\": 2"), std::string::npos);
  EXPECT_NE(content.find("\"seed\": " + std::to_string(kSeed)),
            std::string::npos);
  EXPECT_NE(content.find("patchwork_profiler_backoffs_total"),
            std::string::npos);
}

}  // namespace
}  // namespace patchwork::core
