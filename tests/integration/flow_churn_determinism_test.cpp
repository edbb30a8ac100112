// Event-model determinism contract, CoordinatorDeterminism-style: a full
// coordinator run with the event-driven flow planner (churn on) must
// produce byte-identical pcaps, reports, and deterministic metrics
// exposition at 0/1/2/8 workers, for any render batch size, and on every
// supported SIMD tier. The planner's priority queue runs on the window's
// plan substream and rendering stays counter-addressed, so nothing the
// scheduler does can reach the bytes.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/coordinator.hpp"
#include "flowsched/event_gen.hpp"
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

ProfilerConfig event_model_config() {
  ProfilerConfig config;
  config.plan.cycles = 2;
  config.plan.samples_per_run = 2;
  config.plan.runs_per_cycle = 1;
  config.plan.max_frames_per_sample = 300;
  config.crash_probability = 0.0;
  config.desired_instances = 1;
  config.compress_transfers = true;
  config.flow_model.model = flowsched::FlowModel::kEvent;
  config.flow_model.flows_per_second = 30.0;
  config.flow_model.mean_flow_duration_s = 4.0;
  config.flow_model.flow_keys = 64;
  config.flow_model.churn_fpm = 120.0;  // A replacement every 500 ms.
  return config;
}

testbed::FederationSpec wide_spec() {
  testbed::FederationSpec spec;
  spec.sites = 8;
  return spec;
}

struct Artifacts {
  ProfileRun run;
  std::string expose_deterministic;
};

Artifacts run_event_world(std::uint64_t seed,
                          const ProfilerConfig& config) {
  obs::registry().reset();
  World world(seed, wide_spec());
  world.warm_up_telemetry();
  Coordinator coordinator(world.env, config);
  Artifacts out;
  out.run = coordinator.run_all_experiment();
  out.expose_deterministic = obs::expose_text(/*deterministic_only=*/true);
  return out;
}

void expect_runs_identical(const ProfileRun& a, const ProfileRun& b,
                           const std::string& label) {
  ASSERT_EQ(a.reports.size(), b.reports.size()) << label;
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const SiteRunReport& ra = a.reports[i];
    const SiteRunReport& rb = b.reports[i];
    EXPECT_EQ(ra.site.value, rb.site.value) << label << " report " << i;
    EXPECT_EQ(ra.outcome, rb.outcome) << label << " report " << i;
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
    ASSERT_EQ(ca.pcap.size(), cb.pcap.size()) << label << " capture " << i;
    EXPECT_TRUE(ca.pcap == cb.pcap)
        << label << " capture " << i << " pcap bytes differ";
  }
}

TEST(FlowChurnDeterminism, EventModelIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const ProfilerConfig config = event_model_config();

  util::set_thread_count(0);  // Serial reference.
  const Artifacts reference = run_event_world(/*seed=*/11, config);
  ASSERT_FALSE(reference.run.captures.empty());

  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::set_thread_count(threads);
    const Artifacts parallel = run_event_world(/*seed=*/11, config);
    const std::string label = "event threads=" + std::to_string(threads);
    expect_runs_identical(reference.run, parallel.run, label);
    EXPECT_EQ(reference.expose_deterministic, parallel.expose_deterministic)
        << label << ": deterministic exposition differs";
  }
}

TEST(FlowChurnDeterminism, EventModelRenderBatchInvariant) {
  ThreadCountGuard guard;

  util::set_thread_count(0);
  ProfilerConfig config = event_model_config();
  config.render_batch_frames = 1024;
  const Artifacts reference = run_event_world(/*seed=*/17, config);
  ASSERT_FALSE(reference.run.captures.empty());

  for (std::size_t batch :
       {std::size_t{1}, std::size_t{17}, std::size_t{4096}}) {
    util::set_thread_count(2);
    config.render_batch_frames = batch;
    const Artifacts rebatched = run_event_world(/*seed=*/17, config);
    const std::string label = "event batch=" + std::to_string(batch);
    expect_runs_identical(reference.run, rebatched.run, label);
    EXPECT_EQ(reference.expose_deterministic,
              rebatched.expose_deterministic)
        << label << ": deterministic exposition differs";
  }
}

TEST(FlowChurnDeterminism, EventModelSimdTierInvariant) {
  ThreadCountGuard guard;
  struct SimdGuard {
    ~SimdGuard() { util::reset_simd_tier(); }
  } simd_guard;

  auto run_tier = [](util::SimdTier tier) {
    util::set_simd_tier(tier);
    return run_event_world(/*seed=*/11, event_model_config());
  };

  util::set_thread_count(0);
  const Artifacts reference = run_tier(util::SimdTier::kScalar);
  ASSERT_FALSE(reference.run.captures.empty());

  for (util::SimdTier tier : {util::SimdTier::kScalar, util::SimdTier::kSse4,
                              util::SimdTier::kAvx2}) {
    if (!util::simd_tier_supported(tier)) continue;
    for (std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
      util::set_thread_count(threads);
      const Artifacts forced = run_tier(tier);
      const std::string label =
          "event simd=" + std::string(util::to_string(tier)) +
          " threads=" + std::to_string(threads);
      expect_runs_identical(reference.run, forced.run, label);
      EXPECT_EQ(reference.expose_deterministic, forced.expose_deterministic)
          << label << ": deterministic exposition differs";
    }
  }
}

TEST(FlowChurnDeterminism, EventModelRecordsFlowschedMetrics) {
  ThreadCountGuard guard;
  util::set_thread_count(0);
  const Artifacts run = run_event_world(/*seed=*/41, event_model_config());
  ASSERT_FALSE(run.run.captures.empty());
  // The event planner's accounting reaches the deterministic exposition.
  EXPECT_NE(run.expose_deterministic.find(
                "patchwork_flowsched_flows_generated_total"),
            std::string::npos);
  EXPECT_NE(run.expose_deterministic.find(
                "patchwork_flowsched_active_flows_max"),
            std::string::npos);
  EXPECT_NE(run.expose_deterministic.find(
                "patchwork_flowsched_churn_replacements_total"),
            std::string::npos);
}

TEST(FlowChurnDeterminism, EventAndMixModelsDiverge) {
  // Sanity: the knob actually switches planners — same seed, different
  // traffic model, different bytes.
  ThreadCountGuard guard;
  util::set_thread_count(0);
  const Artifacts event_run = run_event_world(/*seed=*/11,
                                              event_model_config());
  ProfilerConfig mix = event_model_config();
  mix.flow_model.model = flowsched::FlowModel::kMix;
  const Artifacts mix_run = run_event_world(/*seed=*/11, mix);
  ASSERT_FALSE(event_run.run.captures.empty());
  ASSERT_FALSE(mix_run.run.captures.empty());
  bool any_differ = event_run.run.captures.size() !=
                    mix_run.run.captures.size();
  for (std::size_t i = 0;
       !any_differ && i < event_run.run.captures.size(); ++i) {
    any_differ = event_run.run.captures[i].pcap !=
                 mix_run.run.captures[i].pcap;
  }
  EXPECT_TRUE(any_differ) << "event model rendered the mix model's bytes";
}

}  // namespace
}  // namespace patchwork::core
