// Fidelity checks: does a testbed-wide profile gathered by Patchwork on
// the simulated federation reproduce the *shape* of the paper's Section
// 8.2 findings? Tolerances are loose — these guard the calibration, not
// exact numbers.
#include <gtest/gtest.h>

#include "analysis/pipeline.hpp"
#include "core/coordinator.hpp"
#include "testing/env_fixture.hpp"

namespace patchwork {
namespace {

using patchwork::testing::World;

/// One shared profile for all fidelity checks (gathering is the slow
/// part; the assertions are independent reads of the same report).
class ProfileFidelity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new World(1234);
    world_->warm_up_telemetry();
    core::ProfilerConfig config;
    config.plan.cycles = 3;
    config.plan.samples_per_run = 2;
    config.plan.max_frames_per_sample = 800;
    config.crash_probability = 0.0;
    config.capture.method = capture::CaptureMethod::kFpgaDpdk;
    config.capture.cores = 5;
    config.capture.snaplen = 200;
    core::Coordinator coordinator(world_->env, config);
    run_ = new core::ProfileRun(coordinator.run_all_experiment());
    report_ = new analysis::ProfileReport(
        analysis::run_pipeline(run_->captures));
  }
  static void TearDownTestSuite() {
    delete report_;
    delete run_;
    delete world_;
    report_ = nullptr;
    run_ = nullptr;
    world_ = nullptr;
  }

  static World* world_;
  static core::ProfileRun* run_;
  static analysis::ProfileReport* report_;
};

World* ProfileFidelity::world_ = nullptr;
core::ProfileRun* ProfileFidelity::run_ = nullptr;
analysis::ProfileReport* ProfileFidelity::report_ = nullptr;

TEST_F(ProfileFidelity, ProfileIsSubstantial) {
  ASSERT_NE(report_, nullptr);
  EXPECT_GT(report_->digest_stats.frames, 10000u);
  EXPECT_GT(report_->site_loads.size(), 15u);
}

TEST_F(ProfileFidelity, JumboBucketDominatesFrameSizes) {
  // Section 8.2: 1519-2047 B frames are 74.7% of FABRIC traffic; the
  // small-ACK bucket 65-127 B is second at 14.15%.
  const double jumbo = report_->frame_sizes.fraction_in(1519);
  const double acks = report_->frame_sizes.fraction_in(65);
  EXPECT_GT(jumbo, 0.45);
  EXPECT_GT(acks, 0.05);
  EXPECT_GT(jumbo, acks);
  // Those two buckets together dominate.
  EXPECT_GT(jumbo + acks, 0.6);
}

TEST_F(ProfileFidelity, Ipv4DominatesIpv6) {
  // Finding B6: IPv6 is < ~2% of frames (we allow a loose band).
  const double ipv4 =
      report_->header_occurrence.percent(net::Protocol::kIpv4);
  const double ipv6 =
      report_->header_occurrence.percent(net::Protocol::kIpv6);
  EXPECT_GT(ipv4, 80.0);
  EXPECT_LT(ipv6, 6.0);
  EXPECT_GT(ipv4, 20.0 * std::max(ipv6, 0.1));
}

TEST_F(ProfileFidelity, TcpDominatesTransport) {
  const double tcp = report_->header_occurrence.percent(net::Protocol::kTcp);
  const double udp = report_->header_occurrence.percent(net::Protocol::kUdp);
  EXPECT_GT(tcp, udp);
  EXPECT_GT(tcp, 50.0);
}

TEST_F(ProfileFidelity, MostTrafficIsTagged) {
  // Fig. 12: most traffic is tagged using VLAN, MPLS, or both.
  const auto& tagging = report_->tagging;
  ASSERT_GT(tagging.frames, 0u);
  const double tagged_fraction =
      1.0 - static_cast<double>(tagging.untagged) /
                static_cast<double>(tagging.frames);
  EXPECT_GT(tagged_fraction, 0.8);
}

TEST_F(ProfileFidelity, DeepestStacksBetween5And12) {
  // Fig. 11 (y2): maximal header prefixes of 6-12 headers per site.
  for (const auto& site : report_->site_loads) {
    EXPECT_GE(site.deepest_stack, 4u) << site.site;
    EXPECT_LE(site.deepest_stack, 12u) << site.site;
  }
  // At least one site reaches the deep-encapsulation regime.
  std::size_t deepest = 0;
  for (const auto& site : report_->site_loads) {
    deepest = std::max(deepest, site.deepest_stack);
  }
  EXPECT_GE(deepest, 8u);
}

TEST_F(ProfileFidelity, SitesShowDiverseHeaderVariety) {
  // Fig. 11 (y1) / finding B2: "most FABRIC sites exhibit a low variety
  // of protocols in their traffic, but some sites use many types".
  std::size_t lo = 1000, hi = 0;
  for (const auto& site : report_->site_loads) {
    lo = std::min(lo, site.distinct_headers);
    hi = std::max(hi, site.distinct_headers);
  }
  EXPECT_LT(lo, hi);
  EXPECT_GE(hi, lo + 3);
}

TEST_F(ProfileFidelity, FlowCountsPerSampleSpreadWidely) {
  // Fig. 13: most samples have modest flow counts, some have many. The
  // rendered-frame cap compresses absolute counts; check the spread.
  std::size_t lo = SIZE_MAX, hi = 0;
  for (const auto& s : report_->flows_per_sample) {
    lo = std::min(lo, s.flows);
    hi = std::max(hi, s.flows);
  }
  EXPECT_LT(lo * 4, hi);  // At least a 4x spread across samples.
}

TEST_F(ProfileFidelity, PureAcksArePresent) {
  // The minimum-size frames the paper sees are payload-free ACKs.
  EXPECT_GT(report_->tcp_control.pure_ack, 0u);
  EXPECT_GT(report_->tcp_control.tcp_frames,
            report_->tcp_control.pure_ack);
}

TEST_F(ProfileFidelity, DeploymentMostlySucceeds) {
  // Fig. 10: ~79% success over the deployment period; a single run with
  // no induced failures should be >= that.
  EXPECT_GT(run_->success_fraction(), 0.7);
}

}  // namespace
}  // namespace patchwork
