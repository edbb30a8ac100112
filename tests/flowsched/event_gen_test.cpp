// The event-driven planner's contracts: same seed -> same plan, units
// confined to their flows' active intervals, counter-addressed rendering
// invariant to burst decomposition, churn and pool pressure observable
// through the stats, and the max_frames thinning cap respected.
#include "flowsched/event_gen.hpp"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/window_render.hpp"
#include "net/frame_store.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"

namespace patchwork::flowsched {
namespace {

traffic::SiteWorkloadProfile test_profile() {
  util::Rng rng(5);
  return traffic::make_site_profiles(rng, 1).front();
}

traffic::WindowParams test_params() {
  traffic::WindowParams params;
  params.duration = 20 * util::kSecond;
  params.target_bps = 2e9;
  params.max_frames = 5000;
  return params;
}

FlowModelConfig event_config() {
  FlowModelConfig config;
  config.model = FlowModel::kEvent;
  config.flows_per_second = 30.0;
  config.mean_flow_duration_s = 4.0;
  config.flow_keys = 64;
  return config;
}

TEST(FlowSched, EventPlanDeterministicForSameSeed) {
  const traffic::SiteWorkloadProfile profile = test_profile();
  const traffic::WindowParams params = test_params();
  const FlowModelConfig config = event_config();

  util::Rng ra(17), rb(17);
  EventPlanStats sa, sb;
  const traffic::WindowPlan a = plan_event_window(ra, profile, params,
                                                  config, &sa);
  const traffic::WindowPlan b = plan_event_window(rb, profile, params,
                                                  config, &sb);
  ASSERT_EQ(a.units.size(), b.units.size());
  ASSERT_FALSE(a.units.empty());
  for (std::size_t u = 0; u < a.units.size(); ++u) {
    EXPECT_EQ(a.units[u].frames, b.units[u].frames) << "unit " << u;
    EXPECT_EQ(a.units[u].acks, b.units[u].acks) << "unit " << u;
    EXPECT_EQ(a.units[u].ts_lo, b.units[u].ts_lo) << "unit " << u;
    EXPECT_EQ(a.units[u].ts_hi, b.units[u].ts_hi) << "unit " << u;
    EXPECT_EQ(a.units[u].flow.src_port, b.units[u].flow.src_port)
        << "unit " << u;
  }
  EXPECT_EQ(a.planned_frames, b.planned_frames);
  EXPECT_DOUBLE_EQ(a.offered_pps, b.offered_pps);
  EXPECT_EQ(sa.flows_generated, sb.flows_generated);
  EXPECT_EQ(sa.flows_expired, sb.flows_expired);
  EXPECT_EQ(sa.max_queue_depth, sb.max_queue_depth);
}

TEST(FlowSched, EventPlanUnitsStayInsideActiveIntervals) {
  const traffic::SiteWorkloadProfile profile = test_profile();
  const traffic::WindowParams params = test_params();
  util::Rng rng(23);
  EventPlanStats stats;
  const traffic::WindowPlan plan =
      plan_event_window(rng, profile, params, event_config(), &stats);
  ASSERT_FALSE(plan.units.empty());
  EXPECT_GT(stats.flows_generated, 0u);
  for (const traffic::RenderUnit& unit : plan.units) {
    EXPECT_LE(unit.ts_lo, unit.ts_hi);
    EXPECT_LT(unit.ts_hi, params.duration);
  }

  // Rendered timestamps honor the bounds: pure counter addressing into
  // the unit's own interval.
  const traffic::RenderUnit& unit = plan.units.front();
  util::Rng root(23);
  const util::RngBlock draws(root.split(traffic::kWindowUnitStreamBase));
  net::FrameStore store;
  net::FrameBuilder builder;
  traffic::render_unit(unit, draws, params.duration, 0, unit.frames,
                       builder, store);
  ASSERT_EQ(store.size(), unit.frames);
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_GE(store.view(i).timestamp, unit.ts_lo) << "frame " << i;
    EXPECT_LE(store.view(i).timestamp, unit.ts_hi) << "frame " << i;
  }
}

TEST(FlowSched, EventUnitRenderIsBatchInvariant) {
  const traffic::SiteWorkloadProfile profile = test_profile();
  const traffic::WindowParams params = test_params();
  util::Rng rng(31);
  const traffic::WindowPlan plan =
      plan_event_window(rng, profile, params, event_config());
  const traffic::RenderUnit* unit = nullptr;
  for (const traffic::RenderUnit& u : plan.units) {
    if (u.frames >= 10) {
      unit = &u;
      break;
    }
  }
  ASSERT_NE(unit, nullptr) << "no unit with >= 10 frames";

  util::Rng root(31);
  const util::RngBlock draws(root.split(traffic::kWindowUnitStreamBase + 3));
  net::FrameBuilder builder;
  net::FrameStore whole;
  traffic::render_unit(*unit, draws, params.duration, 0, unit->frames,
                       builder, whole);
  net::FrameStore pieces;
  const std::uint64_t mid = unit->frames / 2;
  traffic::render_unit(*unit, draws, params.duration, 0, mid, builder,
                       pieces);
  traffic::render_unit(*unit, draws, params.duration, mid, unit->frames,
                       builder, pieces);
  ASSERT_EQ(whole.size(), pieces.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(whole.view(i).timestamp, pieces.view(i).timestamp);
    ASSERT_EQ(whole.view(i).bytes.size(), pieces.view(i).bytes.size());
    EXPECT_TRUE(std::equal(whole.view(i).bytes.begin(),
                           whole.view(i).bytes.end(),
                           pieces.view(i).bytes.begin()))
        << "frame " << i << " bytes differ across batching";
  }
}

TEST(FlowSched, EventWindowRespectsTargetRate) {
  const traffic::SiteWorkloadProfile profile = test_profile();
  traffic::WindowParams params = test_params();
  params.max_frames = 100000;  // No thinning: measure the true stream.
  // Planned on a fork of the stream and rendered at full delivery, as the
  // data plane renders a sample.
  util::Rng rng(7);
  const util::Rng root = rng.fork();
  util::Rng plan_rng = root.split(traffic::kWindowPlanStream);
  const traffic::WindowPlan plan =
      plan_event_window(plan_rng, profile, params, event_config());
  const core::RenderedWindow window = core::render_window(
      plan, root, params.duration, /*delivery=*/1.0, 0, {});
  EXPECT_DOUBLE_EQ(plan.offered_bps, params.target_bps);
  EXPECT_GT(window.offered_pps, 0.0);
  ASSERT_FALSE(window.frames.empty());
  double rendered_bytes = 0.0;
  for (const net::FrameView& f : window.frames) {
    rendered_bytes += static_cast<double>(f.wire_length);
  }
  const double mean_frame =
      rendered_bytes / static_cast<double>(window.frames.size());
  const double implied_bytes = window.offered_pps * 20.0 * mean_frame;
  const double target_bytes = params.target_bps * 20.0 / 8.0;
  // Wider than the mix model's band: arrivals are stochastic and the
  // mice clamp sheds chatter flows' nominal budget.
  EXPECT_GT(implied_bytes, 0.25 * target_bytes);
  EXPECT_LT(implied_bytes, 3.0 * target_bytes);
}

TEST(FlowSched, ChurnReplacesKeysAndIsCounted) {
  const traffic::SiteWorkloadProfile profile = test_profile();
  const traffic::WindowParams params = test_params();
  FlowModelConfig config = event_config();
  config.flow_keys = 16;
  config.churn_fpm = 600.0;  // A replacement every 100 ms.
  util::Rng rng(13);
  EventPlanStats stats;
  const traffic::WindowPlan plan =
      plan_event_window(rng, profile, params, config, &stats);
  EXPECT_GT(stats.churn_replacements, 100u);
  // Churn introduces fresh 5-tuples: the plan must reference more
  // distinct endpoints than the bounded key pool holds at any instant.
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint16_t,
                      std::uint16_t>>
      tuples;
  for (const traffic::RenderUnit& u : plan.units) {
    tuples.insert({u.flow.src_ip.value, u.flow.dst_ip.value,
                   u.flow.src_port, u.flow.dst_port});
  }
  EXPECT_GT(tuples.size(), config.flow_keys);
}

TEST(FlowSched, PoolBoundSuppressesArrivals) {
  const traffic::SiteWorkloadProfile profile = test_profile();
  const traffic::WindowParams params = test_params();
  FlowModelConfig config = event_config();
  config.flows_per_second = 100.0;
  config.mean_flow_duration_s = 5.0;  // ~500 concurrent wanted...
  config.max_active_flows = 4;        // ...but only 4 slots.
  util::Rng rng(29);
  EventPlanStats stats;
  plan_event_window(rng, profile, params, config, &stats);
  EXPECT_GT(stats.arrivals_suppressed, 0u);
  EXPECT_LE(stats.max_active_flows, 4u);
  EXPECT_GT(stats.flows_generated, 0u);
}

TEST(FlowSched, PlannedFramesRespectMaxFramesCap) {
  const traffic::SiteWorkloadProfile profile = test_profile();
  traffic::WindowParams params = test_params();
  params.target_bps = 50e9;  // Far more true frames than the render cap.
  params.max_frames = 2000;
  util::Rng rng(37);
  const traffic::WindowPlan plan =
      plan_event_window(rng, profile, params, event_config());
  EXPECT_GT(plan.planned_frames, 0u);
  EXPECT_LE(plan.planned_frames,
            static_cast<std::uint64_t>(params.max_frames * 1.2))
      << "thinning cap blown";
  EXPECT_GT(plan.offered_pps * 20.0,
            static_cast<double>(plan.planned_frames))
      << "true rate should exceed the rendered count when thinned";
}

TEST(FlowSched, ConfigSpellingsRoundTrip) {
  EXPECT_EQ(parse_flow_model("event"), FlowModel::kEvent);
  EXPECT_EQ(parse_flow_model("mix"), FlowModel::kMix);
  EXPECT_FALSE(parse_flow_model("bogus").has_value());
  EXPECT_EQ(parse_arrival("exp"), ArrivalProcess::kExponential);
  EXPECT_EQ(parse_arrival("uniform"), ArrivalProcess::kUniform);
  EXPECT_EQ(parse_duration("pareto"), DurationProcess::kPareto);
  EXPECT_EQ(to_string(FlowModel::kEvent), "event");
  EXPECT_EQ(to_string(ArrivalProcess::kExponential), "exp");
  EXPECT_EQ(to_string(DurationProcess::kPareto), "pareto");
}

}  // namespace
}  // namespace patchwork::flowsched
