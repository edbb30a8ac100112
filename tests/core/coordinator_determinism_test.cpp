// The parallel online path's contract: a coordinator run over a same-seed
// world produces byte-identical results for every thread count. The control
// plane is serial by construction; the data plane renders each site from a
// child RNG stream split off the run seed by site id, so pcap bytes depend
// only on (seed, site) — never on which worker rendered the site or in
// what order the strands interleaved.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "analysis/pipeline.hpp"
#include "core/coordinator.hpp"
#include "obs/metrics.hpp"
#include "testing/env_fixture.hpp"
#include "util/parallel.hpp"
#include "util/philox_simd.hpp"

namespace patchwork::core {
namespace {

using patchwork::testing::World;

struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_thread_count(std::nullopt); }
};

ProfilerConfig multi_sample_config() {
  ProfilerConfig config;
  config.plan.cycles = 2;
  config.plan.samples_per_run = 2;
  config.plan.runs_per_cycle = 1;
  config.plan.max_frames_per_sample = 300;
  config.crash_probability = 0.0;
  config.desired_instances = 1;
  config.compress_transfers = true;
  return config;
}

testbed::FederationSpec wide_spec() {
  testbed::FederationSpec spec;
  spec.sites = 8;
  return spec;
}

/// One full same-seed run: fresh world, warm telemetry, all-experiment
/// profile. The World is rebuilt per call so every thread count starts
/// from an identical simulation state.
ProfileRun run_world(std::uint64_t seed) {
  World world(seed, wide_spec());
  world.warm_up_telemetry();
  Coordinator coordinator(world.env, multi_sample_config());
  return coordinator.run_all_experiment();
}

void expect_runs_identical(const ProfileRun& a, const ProfileRun& b,
                           const std::string& label) {
  ASSERT_EQ(a.reports.size(), b.reports.size()) << label;
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const SiteRunReport& ra = a.reports[i];
    const SiteRunReport& rb = b.reports[i];
    EXPECT_EQ(ra.site.value, rb.site.value) << label << " report " << i;
    EXPECT_EQ(ra.site_name, rb.site_name) << label << " report " << i;
    EXPECT_EQ(ra.outcome, rb.outcome) << label << " report " << i;
    EXPECT_EQ(ra.instances, rb.instances) << label << " report " << i;
    EXPECT_EQ(ra.backoffs, rb.backoffs) << label << " report " << i;
    EXPECT_EQ(ra.samples, rb.samples) << label << " report " << i;
    EXPECT_EQ(ra.pcap_bytes, rb.pcap_bytes) << label << " report " << i;
    EXPECT_EQ(ra.transferred_bytes, rb.transferred_bytes)
        << label << " report " << i;
  }
  ASSERT_EQ(a.captures.size(), b.captures.size()) << label;
  for (std::size_t i = 0; i < a.captures.size(); ++i) {
    const analysis::RawCapture& ca = a.captures[i];
    const analysis::RawCapture& cb = b.captures[i];
    EXPECT_EQ(ca.site, cb.site) << label << " capture " << i;
    EXPECT_EQ(ca.port, cb.port) << label << " capture " << i;
    EXPECT_EQ(ca.start, cb.start) << label << " capture " << i;
    EXPECT_EQ(ca.switch_drops_suspected, cb.switch_drops_suspected)
        << label << " capture " << i;
    // The strong claim: the pcap BYTES are identical, not just the sizes.
    ASSERT_EQ(ca.pcap.size(), cb.pcap.size()) << label << " capture " << i;
    EXPECT_TRUE(ca.pcap == cb.pcap)
        << label << " capture " << i << " pcap bytes differ";
  }
}

TEST(CoordinatorDeterminism, IdenticalRunsAcrossThreadCounts) {
  ThreadCountGuard guard;

  util::set_thread_count(0);  // Serial reference.
  const ProfileRun reference = run_world(/*seed=*/11);
  ASSERT_FALSE(reference.captures.empty());

  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::set_thread_count(threads);
    const ProfileRun parallel = run_world(/*seed=*/11);
    expect_runs_identical(reference, parallel,
                          "threads=" + std::to_string(threads));
  }
}

TEST(CoordinatorDeterminism, PipelineCsvsIdenticalAcrossThreadCounts) {
  // End to end: the whole online + offline path at 0 vs 8 workers must
  // emit byte-identical CSVs.
  ThreadCountGuard guard;

  util::set_thread_count(0);
  const ProfileRun serial_run = run_world(/*seed=*/23);
  const analysis::ProfileReport serial =
      analysis::run_pipeline(serial_run.captures);

  util::set_thread_count(8);
  const ProfileRun parallel_run = run_world(/*seed=*/23);
  const analysis::ProfileReport parallel =
      analysis::run_pipeline(parallel_run.captures);

  EXPECT_EQ(serial.digest_stats.frames, parallel.digest_stats.frames);
  EXPECT_EQ(serial.distinct_flows, parallel.distinct_flows);
  ASSERT_EQ(serial.csv_files.size(), parallel.csv_files.size());
  for (const auto& [name, bytes] : serial.csv_files) {
    ASSERT_TRUE(parallel.csv_files.count(name)) << name;
    EXPECT_EQ(bytes, parallel.csv_files.at(name)) << name << " differs";
  }
}

/// The per-sample split's motivating workload: one hot site holds >80% of
/// all pending samples. Site 0 keeps its full complement of six dedicated
/// NICs while site 1 is squeezed down to one by a foreign slice, so the
/// hot site renders 12 mirror slots against the cold site's 2. Per-site
/// task granularity would serialize behind site 0; per-sample granularity
/// still fills the pool — and must stay byte-identical while doing so.
struct SkewedArtifacts {
  ProfileRun run;
  std::string expose_deterministic;
};

SkewedArtifacts run_skewed_world(std::uint64_t seed) {
  obs::registry().reset();
  testbed::FederationSpec spec;
  spec.sites = 3;  // Sites 0 and 1 profile; site 2 is the teaching site.
  spec.min_dedicated_nics = 6;
  spec.max_dedicated_nics = 6;
  spec.min_downlinks = 40;  // Plenty of switch ports for all six NICs.
  spec.max_downlinks = 40;
  World world(seed, spec);

  testbed::Site& cold = world.fed.site(testbed::SiteId{1});
  auto nics = cold.available_nics(testbed::NicKind::kDedicatedConnectX);
  EXPECT_EQ(nics.size(), 6u);
  for (std::size_t i = 0; i + 1 < nics.size(); ++i) {
    cold.mutable_nic(nics[i]).allocated_to = testbed::SliceId{999};
  }

  world.warm_up_telemetry();
  ProfilerConfig config = multi_sample_config();
  config.desired_instances = 0;  // One instance per free NIC: 6 vs 1.
  Coordinator coordinator(world.env, config);
  SkewedArtifacts out;
  out.run = coordinator.run_all_experiment();
  out.expose_deterministic = obs::expose_text(/*deterministic_only=*/true);
  return out;
}

TEST(CoordinatorDeterminism, SkewedHotSiteIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;

  util::set_thread_count(0);  // Serial reference.
  const SkewedArtifacts reference = run_skewed_world(/*seed=*/47);
  ASSERT_FALSE(reference.run.captures.empty());

  // Confirm the workload really is skewed: the hot site must hold more
  // than 80% of all samples, with the cold site still contributing.
  std::size_t hot = 0, total = 0;
  for (const SiteRunReport& r : reference.run.reports) {
    total += r.samples;
    if (r.site.value == 0) hot = r.samples;
  }
  ASSERT_GT(total, 0u);
  ASSERT_LT(hot, total) << "cold site contributed no samples";
  EXPECT_GT(static_cast<double>(hot) / static_cast<double>(total), 0.8)
      << "hot site holds " << hot << "/" << total
      << " samples — workload not skewed enough to exercise the split";

  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::set_thread_count(threads);
    const SkewedArtifacts parallel = run_skewed_world(/*seed=*/47);
    const std::string label = "skewed threads=" + std::to_string(threads);
    expect_runs_identical(reference.run, parallel.run, label);
    EXPECT_EQ(reference.expose_deterministic, parallel.expose_deterministic)
        << label << ": deterministic exposition differs";
  }
}

TEST(CoordinatorDeterminism, RenderBatchSizeInvariant) {
  // The synthesis burst size tunes scheduling granularity only: any batch
  // value must reproduce the serial reference bytes exactly, because every
  // frame's draws are addressed by (unit stream, counter), not by burst.
  ThreadCountGuard guard;

  auto run_batched = [](std::size_t batch) {
    World world(/*seed=*/11, wide_spec());
    world.warm_up_telemetry();
    ProfilerConfig config = multi_sample_config();
    config.render_batch_frames = batch;
    Coordinator coordinator(world.env, config);
    return coordinator.run_all_experiment();
  };

  util::set_thread_count(0);
  const ProfileRun reference = run_batched(1024);
  ASSERT_FALSE(reference.captures.empty());

  for (std::size_t batch : {std::size_t{1}, std::size_t{17},
                            std::size_t{4096}}) {
    util::set_thread_count(2);
    const ProfileRun parallel = run_batched(batch);
    expect_runs_identical(reference, parallel,
                          "batch=" + std::to_string(batch));
  }
}

TEST(CoordinatorDeterminism, SimdTierInvariant) {
  // The vector kernel tier is a throughput knob, never a bytes knob:
  // forcing each compiled-and-supported ISA tier through set_simd_tier must
  // reproduce the scalar reference run exactly — pcap bytes, reports, and
  // the deterministic metrics exposition — serial and parallel alike.
  ThreadCountGuard guard;
  struct SimdGuard {
    ~SimdGuard() { util::reset_simd_tier(); }
  } simd_guard;

  auto run_tier = [](util::SimdTier tier) {
    obs::registry().reset();
    World world(/*seed=*/11, wide_spec());
    world.warm_up_telemetry();
    util::set_simd_tier(tier);
    Coordinator coordinator(world.env, multi_sample_config());
    SkewedArtifacts out;
    out.run = coordinator.run_all_experiment();
    out.expose_deterministic = obs::expose_text(/*deterministic_only=*/true);
    return out;
  };

  util::set_thread_count(0);
  const SkewedArtifacts reference = run_tier(util::SimdTier::kScalar);
  ASSERT_FALSE(reference.run.captures.empty());
  EXPECT_EQ(util::simd_tier(), util::SimdTier::kScalar)
      << "the forced tier did not reach the dispatcher";

  for (util::SimdTier tier :
       {util::SimdTier::kScalar, util::SimdTier::kSse4,
        util::SimdTier::kAvx2}) {
    if (!util::simd_tier_supported(tier)) continue;
    for (std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
      util::set_thread_count(threads);
      const SkewedArtifacts forced = run_tier(tier);
      const std::string label = "simd=" + std::string(util::to_string(tier)) +
                                " threads=" + std::to_string(threads);
      expect_runs_identical(reference.run, forced.run, label);
      EXPECT_EQ(reference.expose_deterministic, forced.expose_deterministic)
          << label << ": deterministic exposition differs";
    }
  }
}

TEST(CoordinatorDeterminism, SingleExperimentIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const std::vector<testbed::GlobalPortId> slice_ports = {
      {testbed::SiteId{1}, testbed::PortId{4}},
      {testbed::SiteId{2}, testbed::PortId{5}},
  };
  auto run_single = [&] {
    World world(/*seed=*/31, wide_spec());
    world.warm_up_telemetry();
    Coordinator coordinator(world.env, multi_sample_config());
    return coordinator.run_single_experiment(slice_ports);
  };

  util::set_thread_count(0);
  const ProfileRun reference = run_single();
  util::set_thread_count(8);
  const ProfileRun parallel = run_single();
  expect_runs_identical(reference, parallel, "single-experiment");
}

}  // namespace
}  // namespace patchwork::core
