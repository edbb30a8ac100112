// Flight-recorder contract over a real congested run: the set of complete
// stage events (names and counts) is a pure function of the seeded work —
// identical at 0/2/8 workers — and tracing never perturbs the deterministic
// artifacts (pcap bytes, deterministic exposition). Ring overflow under a
// deliberately tiny capacity is counted, never blocking.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/coordinator.hpp"
#include "flowsched/config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "testing/env_fixture.hpp"
#include "util/parallel.hpp"

namespace patchwork::core {
namespace {

using patchwork::testing::World;

struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_thread_count(std::nullopt); }
};

struct TraceGuard {
  ~TraceGuard() { obs::trace::reset(); }
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
  config.desired_instances = 3;
  config.max_backoffs = 5;
  return config;
}

struct TracedRun {
  ProfileRun run;
  std::string expose_deterministic;
  /// Complete ('X') event name -> occurrence count across all lanes.
  std::map<std::string, std::size_t> complete_events;
  std::uint64_t drops = 0;
};

/// Stop the recorder and collect its drops and complete events into `out`.
void collect_trace(TracedRun& out) {
  obs::trace::stop();
  out.drops = obs::trace::dropped_events();
  for (const obs::trace::LaneEvent& le : obs::trace::snapshot_events()) {
    // Only complete stage/burst events are seeded-work-determined;
    // instants (task_steal markers) are scheduling artifacts by design.
    if (le.event.phase == 'X') ++out.complete_events[le.event.name];
  }
}

/// Same congested world as obs_determinism_test: site 0 NIC-scarce with an
/// oversubscribed mirror port, sampled across four sites.
TracedRun run_congested_world(std::optional<std::size_t> trace_capacity) {
  obs::registry().reset();
  obs::trace::reset();
  World world(kSeed, [] {
    testbed::FederationSpec spec;
    spec.sites = 8;
    return spec;
  }());

  testbed::Site& site = world.fed.site(testbed::SiteId{0});
  auto nics = site.available_nics(testbed::NicKind::kDedicatedConnectX);
  for (std::size_t i = 0; i + 1 < nics.size(); ++i) {
    site.mutable_nic(nics[i]).allocated_to = testbed::SliceId{999};
  }
  site.tor().mutable_port(testbed::PortId{0}).set_rates(60e9, 50e9);
  world.warm_up_telemetry();

  if (trace_capacity) obs::trace::start(*trace_capacity);

  Coordinator coordinator(world.env, congested_config());
  TracedRun out;
  out.run = coordinator.run_on_sites({testbed::SiteId{0}, testbed::SiteId{1},
                                      testbed::SiteId{2},
                                      testbed::SiteId{3}});
  out.expose_deterministic = obs::expose_text(/*deterministic_only=*/true);
  if (trace_capacity) collect_trace(out);
  return out;
}

/// An event-model profile of four sites with churn, traced with
/// `trace_capacity` slots per lane. Most of its flows send one frame in a
/// window, so most render bursts hold a single frame, as on perfbench's
/// slice_filtered_churn.
TracedRun run_churn_world(std::size_t trace_capacity) {
  obs::registry().reset();
  obs::trace::reset();
  World world(kSeed, [] {
    testbed::FederationSpec spec;
    spec.sites = 4;
    return spec;
  }());
  world.warm_up_telemetry();
  ProfilerConfig config = congested_config();
  config.flow_model.model = flowsched::FlowModel::kEvent;
  config.flow_model.flows_per_second = 200;
  config.flow_model.churn_fpm = 600;
  config.plan.max_frames_per_sample = 2000;

  obs::trace::start(trace_capacity);
  Coordinator coordinator(world.env, config);
  TracedRun out;
  out.run = coordinator.run_on_sites({testbed::SiteId{0}, testbed::SiteId{1},
                                      testbed::SiteId{2},
                                      testbed::SiteId{3}});
  collect_trace(out);
  return out;
}

TEST(TraceDeterminism, CompleteEventSetIdenticalAcrossWorkerCounts) {
  ThreadCountGuard thread_guard;
  TraceGuard trace_guard;

  util::set_thread_count(0);  // Serial reference.
  const TracedRun reference =
      run_congested_world(obs::trace::kDefaultCapacity);
  ASSERT_FALSE(reference.run.captures.empty());
  EXPECT_EQ(reference.drops, 0u)
      << "default capacity must hold the whole congested run";

  // The recorder saw the instrumented stages, including per-burst units.
  for (const char* stage : {"render/compress", "profiler/render_sample",
                            "render/synthesis", "render/capture",
                            "render_unit"}) {
    ASSERT_TRUE(reference.complete_events.count(stage)) << stage;
    EXPECT_GT(reference.complete_events.at(stage), 0u) << stage;
  }

  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    util::set_thread_count(threads);
    const TracedRun parallel =
        run_congested_world(obs::trace::kDefaultCapacity);
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(parallel.drops, 0u) << label;
    // Names and per-name counts match exactly; only timestamps and lane
    // assignment may differ with scheduling.
    EXPECT_EQ(reference.complete_events, parallel.complete_events) << label;
    EXPECT_EQ(reference.expose_deterministic, parallel.expose_deterministic)
        << label << ": deterministic exposition differs with tracing on";
  }
}

TEST(TraceDeterminism, TracingDoesNotPerturbArtifacts) {
  ThreadCountGuard thread_guard;
  TraceGuard trace_guard;
  util::set_thread_count(2);

  const TracedRun untraced = run_congested_world(std::nullopt);
  const TracedRun traced = run_congested_world(obs::trace::kDefaultCapacity);

  ASSERT_EQ(untraced.run.captures.size(), traced.run.captures.size());
  for (std::size_t i = 0; i < untraced.run.captures.size(); ++i) {
    EXPECT_TRUE(untraced.run.captures[i].pcap == traced.run.captures[i].pcap)
        << "pcap " << i << " differs with tracing enabled";
  }
  EXPECT_EQ(untraced.expose_deterministic, traced.expose_deterministic)
      << "deterministic exposition differs with tracing enabled";
}

TEST(TraceDeterminism, TinyRingsDropAndCountInsteadOfBlocking) {
  ThreadCountGuard thread_guard;
  TraceGuard trace_guard;
  util::set_thread_count(4);

  // 8 slots per lane cannot hold a congested 4-site run; the run must
  // still complete (overwrite-oldest, wait-free) with drops accounted.
  const TracedRun tiny = run_congested_world(std::size_t{8});
  ASSERT_FALSE(tiny.run.captures.empty());
  EXPECT_GT(tiny.drops, 0u);
  std::size_t retained = 0;
  for (const auto& [name, count] : tiny.complete_events) retained += count;
  EXPECT_GT(retained, 0u);
  // The wall-clock drop counter is visible in the full exposition but is
  // excluded from the deterministic view.
  EXPECT_NE(obs::expose_text(false).find(
                "patchwork_trace_dropped_events_total"),
            std::string::npos);
  EXPECT_EQ(tiny.expose_deterministic.find(
                "patchwork_trace_dropped_events_total"),
            std::string::npos);
}

TEST(TraceDeterminism, EventModelRunFitsTheDefaultRings) {
  // About 94 k of this run's 102 k render bursts hold one frame. They
  // record no event, so one lane at the default capacity holds the whole
  // run; an event per burst would overflow it.
  ThreadCountGuard thread_guard;
  TraceGuard trace_guard;
  util::set_thread_count(0);  // One lane records every event.
  const TracedRun traced = run_churn_world(obs::trace::kDefaultCapacity);
  ASSERT_FALSE(traced.run.captures.empty());
  EXPECT_EQ(traced.drops, 0u);
  ASSERT_TRUE(traced.complete_events.count("render_unit"));
  EXPECT_GT(traced.complete_events.at("render_unit"), 0u);
}

}  // namespace
}  // namespace patchwork::core
