// The archive's determinism contract: the bytes appended for one profiling
// run — and the bytes a compaction rewrites — are identical whether the
// pipeline ran serially or on any number of workers. Epoch extraction
// inserts flows in canonical key order and every archived field is a
// deterministic reduction, so the encoded record cannot see the schedule.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "analysis/epoch_extract.hpp"
#include "analysis/pipeline.hpp"
#include "archive/compactor.hpp"
#include "archive/writer.hpp"
#include "core/coordinator.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "testing/env_fixture.hpp"
#include "util/parallel.hpp"

namespace patchwork::core {
namespace {

using patchwork::testing::World;

struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_thread_count(std::nullopt); }
};

constexpr std::uint64_t kSeed = 20260805;

ProfilerConfig small_config() {
  ProfilerConfig config;
  config.plan.cycles = 2;
  config.plan.samples_per_run = 2;
  config.plan.runs_per_cycle = 1;
  config.plan.max_frames_per_sample = 400;
  config.crash_probability = 0.0;
  config.capture.method = capture::CaptureMethod::kFpgaDpdk;
  config.capture.cores = 4;
  config.capture.snaplen = 200;
  return config;
}

/// One full profile -> epoch-record cycle on a fresh world; returns the
/// rendered archive image for two appended epochs.
std::vector<std::uint8_t> archive_image_for_run() {
  obs::registry().reset();
  World world(kSeed);
  world.warm_up_telemetry();

  std::vector<archive::EpochRecord> records;
  for (int epoch = 0; epoch < 2; ++epoch) {
    Coordinator coordinator(world.env, small_config());
    const ProfileRun run = coordinator.run_on_sites(
        {testbed::SiteId{0}, testbed::SiteId{1}, testbed::SiteId{2}});
    const analysis::ProfileReport report =
        analysis::run_pipeline(run.captures);

    obs::ManifestInfo info;
    info.seed = kSeed;
    info.config = {{"epoch", std::to_string(epoch)}, {"sites", "3"}};
    analysis::EpochMeta meta;
    meta.label = "epoch" + std::to_string(epoch);
    meta.start = world.env.clock().now();
    meta.duration = util::kDay;
    meta.offered_bps =
        world.env.mflib().testbed_total_tx_bps(30 * util::kMinute);
    meta.manifest_json = obs::manifest_deterministic_section(info);
    archive::EpochRecord record =
        analysis::extract_epoch_record(report, meta);
    record.first_epoch = record.last_epoch =
        static_cast<std::uint64_t>(epoch);
    records.push_back(std::move(record));
    world.env.advance(util::kDay);
  }
  return archive::render_archive(records);
}

TEST(ArchiveDeterminism, ArchiveBytesIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;

  util::set_thread_count(0);  // Serial reference.
  const std::vector<std::uint8_t> reference = archive_image_for_run();
  ASSERT_GT(reference.size(), archive::kFileHeaderSize);

  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::set_thread_count(threads);
    const std::vector<std::uint8_t> image = archive_image_for_run();
    EXPECT_EQ(reference, image)
        << "archive bytes differ at threads=" << threads;
  }
}

TEST(ArchiveDeterminism, CompactionDeterministicAcrossThreadCounts) {
  ThreadCountGuard guard;

  // Build a pile of synthetic records large enough for several groups.
  std::vector<archive::EpochRecord> records;
  for (std::uint64_t n = 0; n < 16; ++n) {
    archive::EpochRecord r;
    r.first_epoch = r.last_epoch = n;
    r.label = "e" + std::to_string(n);
    r.start_nanos = n * 100;
    r.duration_nanos = 100;
    r.frames = 100 + n;
    r.frame_sizes.edges = {64, 1519};
    r.frame_sizes.counts = {n};
    archive::TopFlowSketch::Builder sketch(4);
    for (std::uint64_t i = 0; i < 6; ++i) {
      sketch.insert("f" + std::to_string((n + i) % 9), 10 * (n + i + 1));
    }
    r.top_flows = std::move(sketch).build();
    records.push_back(std::move(r));
  }
  archive::CompactionOptions options;
  options.storage_budget_bytes = 1;  // Fold as far as possible.
  options.group_size = 3;

  util::set_thread_count(0);
  const auto serial = archive::plan_compaction(records, options).records;
  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::set_thread_count(threads);
    const auto parallel = archive::plan_compaction(records, options).records;
    EXPECT_EQ(archive::render_archive(serial),
              archive::render_archive(parallel))
        << "compaction differs at threads=" << threads;
  }
}

}  // namespace
}  // namespace patchwork::core
