#include "traffic/flowgen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/window_render.hpp"
#include "net/parser.hpp"
#include "testing/fixtures.hpp"
#include "util/thread_pool.hpp"

namespace patchwork::traffic {
namespace {

using patchwork::testing::parse_built;

SiteWorkloadProfile default_profile() {
  util::Rng rng(3);
  return make_site_profiles(rng, 1).front();
}

/// A window as the data plane renders a sample: planned on a fork of
/// `rng`, then rendered through core::render_window at full delivery.
struct Window {
  WindowPlan plan;
  core::RenderedWindow rendered;
};

Window plan_and_render(util::Rng& rng, const SiteWorkloadProfile& profile,
                       const WindowParams& params) {
  const util::Rng root = rng.fork();
  util::Rng plan_rng = root.split(kWindowPlanStream);
  Window out;
  out.plan = plan_window(plan_rng, profile, params);
  out.rendered = core::render_window(out.plan, root, params.duration,
                                     /*delivery=*/1.0, {});
  return out;
}

TEST(FlowGen, RenderWindowMergesMultiBurstUnits) {
  // render_window cuts a unit longer than kRenderBurstFrames into several
  // bursts. At any worker count the merge must put at position i the frame
  // that rendering every unit whole and sorting by (timestamp, unit, j)
  // puts there.
  struct ThreadCountGuard {
    ~ThreadCountGuard() { util::set_thread_count(std::nullopt); }
  } guard;
  util::Rng rng(13);
  const SiteWorkloadProfile profile = default_profile();
  WindowParams params;
  params.target_bps = 1e9;
  const util::Rng root = rng.fork();
  util::Rng plan_rng = root.split(kWindowPlanStream);
  const WindowPlan plan = plan_window(plan_rng, profile, params);
  ASSERT_TRUE(std::any_of(plan.units.begin(), plan.units.end(),
                          [](const RenderUnit& unit) {
                            return unit.frames > core::kRenderBurstFrames;
                          }))
      << "no unit spans more than one burst";

  struct Ref {
    util::Nanos ts;
    std::size_t unit;
    std::uint64_t j;
  };
  std::vector<net::FrameStore> whole(plan.units.size());
  std::vector<Ref> order;
  net::FrameBuilder builder;
  for (std::size_t u = 0; u < plan.units.size(); ++u) {
    const RenderUnit& unit = plan.units[u];
    const util::RngBlock draws(root.split(kWindowUnitStreamBase + u));
    render_unit(unit, draws, params.duration, 0, unit.frames, builder,
                whole[u]);
    ASSERT_EQ(whole[u].size(), unit.frames) << "unit " << u;
    for (std::uint64_t j = 0; j < unit.frames; ++j) {
      order.push_back(Ref{whole[u].view(j).timestamp, u, j});
    }
  }
  std::sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.unit != b.unit) return a.unit < b.unit;
    return a.j < b.j;
  });

  for (std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
    util::set_thread_count(workers);
    const core::RenderedWindow rendered =
        core::render_window(plan, root, params.duration, /*delivery=*/1.0, {});
    ASSERT_EQ(rendered.frames.size(), order.size()) << "workers " << workers;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const net::FrameView expected = whole[order[i].unit].view(order[i].j);
      const net::FrameView got = rendered.frames[i];
      ASSERT_EQ(got.timestamp, expected.timestamp)
          << "workers " << workers << " position " << i;
      ASSERT_EQ(got.bytes.size(), expected.bytes.size())
          << "workers " << workers << " position " << i;
      ASSERT_TRUE(std::equal(got.bytes.begin(), got.bytes.end(),
                             expected.bytes.begin()))
          << "workers " << workers << " position " << i << " bytes differ";
    }
  }
}

TEST(FlowGen, DrawFlowRespectsProfileStructure) {
  util::Rng rng(1);
  const SiteWorkloadProfile profile = default_profile();
  for (int i = 0; i < 200; ++i) {
    const FlowSpec flow = draw_flow(rng, profile);
    EXPECT_TRUE(flow.src_ip.in_ten_slash_eight());
    EXPECT_TRUE(flow.dst_ip.in_ten_slash_eight());
    EXPECT_GE(flow.total_bytes, 64u);
    if (flow.pseudowire) {
      EXPECT_FALSE(flow.mpls_labels.empty());
    }
  }
}

TEST(FlowGen, DataFrameParsesWithExpectedStack) {
  util::Rng rng(2);
  SiteWorkloadProfile profile = default_profile();
  for (int i = 0; i < 100; ++i) {
    const FlowSpec flow = draw_flow(rng, profile);
    net::FrameBuilder data;
    describe_frame(data, flow, /*ack=*/false, 0);
    const net::ParsedFrame parsed = parse_built(data);
    ASSERT_FALSE(parsed.layers.empty());
    EXPECT_EQ(parsed.layers.front().protocol, net::Protocol::kEthernet);
    EXPECT_FALSE(parsed.has(net::Protocol::kMalformed))
        << parsed.stack_string();
    // Tags survive into the parse for flow classification.
    if (flow.vlan_id) {
      EXPECT_FALSE(parsed.vlan_ids.empty());
    }
    EXPECT_EQ(parsed.mpls_labels.size(), flow.mpls_labels.size());
  }
}

TEST(FlowGen, AckFramesAreMinimumSizeReverseDirection) {
  util::Rng rng(4);
  SiteWorkloadProfile profile = default_profile();
  FlowSpec flow;
  do {
    flow = draw_flow(rng, profile);
  } while (!app_is_tcp(flow.app) || flow.ipv6);
  net::FrameBuilder ack;
  describe_frame(ack, flow, /*ack=*/true, 0);
  const net::ParsedFrame parsed = parse_built(ack);
  EXPECT_LE(parsed.wire_length, 127u);  // Paper's 65-127 B ACK bucket.
  ASSERT_TRUE(parsed.tcp.has_value());
  EXPECT_EQ(parsed.tcp->dst_port, flow.src_port);
  EXPECT_EQ(parsed.tcp->src_port, flow.dst_port);
  ASSERT_TRUE(parsed.ipv4.has_value());
  EXPECT_EQ(parsed.ipv4->src, flow.dst_ip);
  EXPECT_EQ(parsed.ipv4->dst, flow.src_ip);
  // Stack ends at TCP: payload-free ACK.
  EXPECT_EQ(parsed.layers.back().protocol, net::Protocol::kTcp);
}

TEST(FlowGen, WindowRespectsTargetRate) {
  util::Rng rng(5);
  SiteWorkloadProfile profile = default_profile();
  WindowParams params;
  params.duration = 20 * util::kSecond;
  params.target_bps = 1e9;
  params.max_frames = 100000;
  const Window window = plan_and_render(rng, profile, params);
  const std::vector<net::FrameView>& frames = window.rendered.frames;
  EXPECT_DOUBLE_EQ(window.plan.offered_bps, 1e9);
  EXPECT_GT(window.rendered.offered_pps, 0.0);
  EXPECT_FALSE(frames.empty());
  // The true stream (offered_pps at the rendered frames' mean size) must
  // carry approximately the target byte volume.
  double rendered_bytes = 0.0;
  for (const net::FrameView& f : frames) {
    rendered_bytes += static_cast<double>(f.wire_length);
  }
  const double mean_frame =
      rendered_bytes / static_cast<double>(frames.size());
  const double implied_bytes = window.rendered.offered_pps * 20.0 * mean_frame;
  const double target_bytes = 1e9 * 20.0 / 8.0;
  EXPECT_GT(implied_bytes, 0.5 * target_bytes);
  EXPECT_LT(implied_bytes, 2.0 * target_bytes);
}

TEST(FlowGen, WindowRenderingCapScalesDown) {
  util::Rng rng(6);
  SiteWorkloadProfile profile = default_profile();
  WindowParams params;
  params.duration = 20 * util::kSecond;
  params.target_bps = 50e9;  // Far too many frames to render fully.
  params.max_frames = 5000;
  const Window window = plan_and_render(rng, profile, params);
  // Cap plus stochastic slack.
  EXPECT_LE(window.rendered.frames.size(), 7000u);
  // True rate is still reported: 50 Gbps of ~1500-2000 B frames is
  // millions of frames over 20 s.
  EXPECT_GT(window.rendered.offered_pps * 20.0, 1e6);
}

TEST(FlowGen, WindowFramesAreTimeOrderedWithinWindow) {
  util::Rng rng(7);
  SiteWorkloadProfile profile = default_profile();
  WindowParams params;
  params.duration = 20 * util::kSecond;
  params.target_bps = 1e8;
  const Window window = plan_and_render(rng, profile, params);
  const std::vector<net::FrameView>& frames = window.rendered.frames;
  for (std::size_t i = 1; i < frames.size(); ++i) {
    EXPECT_LE(frames[i - 1].timestamp, frames[i].timestamp);
  }
  for (const net::FrameView& f : frames) {
    EXPECT_LT(f.timestamp, params.duration);
  }
}

TEST(FlowGen, ZeroRateWindowIsEmpty) {
  util::Rng rng(8);
  SiteWorkloadProfile profile = default_profile();
  WindowParams params;
  params.target_bps = 0.0;
  const Window window = plan_and_render(rng, profile, params);
  EXPECT_TRUE(window.rendered.frames.empty());
  EXPECT_DOUBLE_EQ(window.rendered.offered_pps, 0.0);
}

TEST(FlowGen, TcpAppsProduceAcks) {
  util::Rng rng(9);
  SiteWorkloadProfile profile = default_profile();
  // Force a TCP-dominant profile.
  std::fill(profile.app_weights.begin(), profile.app_weights.end(), 0.0);
  profile.app_weights[static_cast<std::size_t>(FlowApp::kIperfTcp)] = 1.0;
  WindowParams params;
  params.duration = 20 * util::kSecond;
  params.target_bps = 1e9;
  const Window window = plan_and_render(rng, profile, params);
  const std::vector<net::FrameView>& frames = window.rendered.frames;
  std::size_t minis = 0;
  for (const net::FrameView& f : frames) {
    if (f.wire_length <= 127) ++minis;
  }
  // Roughly one delayed ACK per four data frames.
  EXPECT_GT(minis, frames.size() / 8);
}

TEST(FlowGen, RenderUnitIsBatchInvariant) {
  // Frame j of a unit depends only on (unit stream, j): rendering a unit
  // whole or in ragged batches must append identical bytes and timestamps.
  util::Rng rng(10);
  const SiteWorkloadProfile profile = default_profile();
  WindowParams params;
  params.duration = 20 * util::kSecond;
  params.target_bps = 1e8;
  util::Rng plan_rng = rng.split(kWindowPlanStream);
  const WindowPlan plan = plan_window(plan_rng, profile, params);
  ASSERT_FALSE(plan.units.empty());

  net::FrameBuilder builder;
  for (std::size_t u = 0; u < plan.units.size(); ++u) {
    const RenderUnit& unit = plan.units[u];
    const util::RngBlock draws(rng.split(kWindowUnitStreamBase + u));

    net::FrameStore whole;
    render_unit(unit, draws, params.duration, 0, unit.frames, builder, whole);

    net::FrameStore batched;
    for (std::uint64_t begin = 0; begin < unit.frames; begin += 7) {
      const std::uint64_t end = std::min(begin + 7, unit.frames);
      render_unit(unit, draws, params.duration, begin, end, builder, batched);
    }

    ASSERT_EQ(whole.size(), batched.size()) << "unit " << u;
    ASSERT_EQ(whole.size(), unit.frames) << "unit " << u;
    for (std::size_t i = 0; i < whole.size(); ++i) {
      const net::FrameView a = whole.view(i);
      const net::FrameView b = batched.view(i);
      EXPECT_EQ(a.timestamp, b.timestamp) << "unit " << u << " frame " << i;
      ASSERT_EQ(a.bytes.size(), b.bytes.size())
          << "unit " << u << " frame " << i;
      EXPECT_TRUE(std::equal(a.bytes.begin(), a.bytes.end(), b.bytes.begin()))
          << "unit " << u << " frame " << i << " bytes differ";
    }
  }
}

TEST(FlowGen, RenderUnitMatchesPerFrameReferenceBuilds) {
  // The batched template-stamp path vs the scalar ground truth: frame j of
  // a unit must equal its stack described with seq (or ack) j * 1000 and
  // serialized whole by build_into at timestamp bounded_at(j, 0,
  // duration - 1), for every app the plan draws (TCP-seq, DNS-id, ack, and
  // no-varying-field stacks alike).
  util::Rng rng(12);
  const SiteWorkloadProfile profile = default_profile();
  WindowParams params;
  params.duration = 20 * util::kSecond;
  params.target_bps = 1e8;
  util::Rng plan_rng = rng.split(kWindowPlanStream);
  const WindowPlan plan = plan_window(plan_rng, profile, params);
  ASSERT_FALSE(plan.units.empty());

  net::FrameBuilder builder;
  for (std::size_t u = 0; u < plan.units.size(); ++u) {
    const RenderUnit& unit = plan.units[u];
    const util::RngBlock draws(rng.split(kWindowUnitStreamBase + u));
    net::FrameStore store;
    render_unit(unit, draws, params.duration, 0, unit.frames, builder, store);
    ASSERT_EQ(store.size(), unit.frames) << "unit " << u;
    // Sample frames (all for small units) against the per-frame builders.
    const std::uint64_t step = std::max<std::uint64_t>(1, unit.frames / 16);
    for (std::uint64_t j = 0; j < unit.frames; j += step) {
      const util::Nanos t = draws.bounded_at(j, 0, params.duration - 1);
      const std::uint32_t seq = static_cast<std::uint32_t>(j) * 1000;
      net::FrameBuilder reference;
      describe_frame(reference, unit.flow, unit.acks, seq);
      net::FrameStore one;
      reference.build_into(one, t);
      const net::FrameView expected = one.view(0);
      const net::FrameView v = store.view(j);
      EXPECT_EQ(v.timestamp, expected.timestamp)
          << "unit " << u << " frame " << j;
      ASSERT_EQ(v.bytes.size(), expected.bytes.size())
          << "unit " << u << " frame " << j;
      EXPECT_TRUE(
          std::equal(v.bytes.begin(), v.bytes.end(), expected.bytes.begin()))
          << "unit " << u << " frame " << j << " bytes differ";
    }
  }
}

}  // namespace
}  // namespace patchwork::traffic
