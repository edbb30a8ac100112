#include "analysis/analyses.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/digest.hpp"
#include "analysis/report.hpp"
#include "net/frame_builder.hpp"
#include "testing/fixtures.hpp"
#include "util/stats.hpp"

namespace patchwork::analysis {
namespace {

using patchwork::testing::make_capture;
using patchwork::testing::tcp_frame;

TEST(FrameSizes, PaperBucketsCoverInterestingRanges) {
  const auto edges = paper_frame_size_edges();
  ASSERT_GE(edges.size(), 3u);
  EXPECT_EQ(edges.front(), 64);
  // The jumbo-dominant bucket 1519-2047 must exist.
  EXPECT_NE(std::find(edges.begin(), edges.end(), 1519.0), edges.end());
  EXPECT_NE(std::find(edges.begin(), edges.end(), 2048.0), edges.end());
}

TEST(FrameSizes, CountsByWireLength) {
  std::vector<RawCapture> captures;
  net::FrameStore frames;
  tcp_frame(frames, 1, 2, 1, 2, 1900);
  tcp_frame(frames, 1, 2, 1, 2, 1900);
  tcp_frame(frames, 1, 2, 1, 2, 70);
  tcp_frame(frames, 1, 2, 1, 2, 300);
  captures.push_back(make_capture("S1", 0, frames));
  const archive::HistCounts result = analyze(captures).frame_sizes;
  EXPECT_EQ(result.total(), 4u);
  EXPECT_DOUBLE_EQ(result.fraction_in(1519), 0.5);
  EXPECT_DOUBLE_EQ(result.fraction_in(65), 0.25);
  EXPECT_DOUBLE_EQ(result.fraction_in(256), 0.25);
  EXPECT_DOUBLE_EQ(result.fraction_at_or_above(1519), 0.5);
}

TEST(FrameSizes, PerSiteFiltering) {
  std::vector<RawCapture> captures;
  net::FrameStore frames;
  tcp_frame(frames, 1, 2, 1, 2, 2000);
  captures.push_back(make_capture("S1", 0, frames));
  net::FrameStore frames2;
  tcp_frame(frames2, 1, 2, 1, 2, 80);
  captures.push_back(make_capture("S2", 0, frames2));
  const std::vector<SiteLoad> sites = analyze(captures).site_loads;
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].site, "S1");
  EXPECT_EQ(sites[1].site, "S2");
  EXPECT_DOUBLE_EQ(sites[0].frame_sizes.fraction_at_or_above(1519), 1.0);
  EXPECT_DOUBLE_EQ(sites[1].frame_sizes.fraction_at_or_above(1519), 0.0);
}

TEST(HeaderOccurrence, EthernetCanExceedHundredPercent) {
  // Fig. 12: "Ethernet exceeds 100% because Ethernet frames often carry
  // other Ethernet frames."
  net::FrameBuilder b;
  b.ethernet(net::MacAddress::from_id(1), net::MacAddress::from_id(2))
      .mpls(16000)
      .pseudowire()
      .ethernet(net::MacAddress::from_id(3), net::MacAddress::from_id(4))
      .ipv4(net::Ipv4Address::from_octets(10, 0, 0, 1),
            net::Ipv4Address::from_octets(10, 0, 0, 2))
      .tcp(1, 2)
      .payload(10);
  std::vector<RawCapture> captures;
  net::FrameStore frames;
  b.build_into(frames);
  captures.push_back(make_capture("S1", 0, frames));
  const archive::HeaderOccurrenceCounts result =
      analyze(captures).header_occurrence;
  EXPECT_DOUBLE_EQ(result.percent(net::Protocol::kEthernet), 200.0);
  EXPECT_DOUBLE_EQ(result.percent(net::Protocol::kIpv4), 100.0);
  EXPECT_DOUBLE_EQ(result.percent(net::Protocol::kIcmp), 0.0);
}

TEST(SiteVariety, CountsDistinctHeadersAndDepth) {
  std::vector<RawCapture> captures;
  net::FrameStore frames;
  tcp_frame(frames, 1, 2, 1, 443);
  tcp_frame(frames, 1, 2, 1, 5201);
  captures.push_back(make_capture("S1", 0, frames));
  const auto variety = analyze(captures).site_loads;
  ASSERT_EQ(variety.size(), 1u);
  // eth, vlan, mpls, ipv4, tcp (+payload protocols excluded from depth but
  // counted as distinct headers when recognized).
  EXPECT_GE(variety[0].distinct_headers, 5u);
  EXPECT_EQ(variety[0].deepest_stack, 5u);
  EXPECT_EQ(variety[0].site, "S1");
}

TEST(FlowsPerSample, DistinctFlowCount) {
  std::vector<RawCapture> captures;
  net::FrameStore frames;
  tcp_frame(frames, 1, 2, 1000, 443);
  tcp_frame(frames, 1, 2, 1000, 443);
  tcp_frame(frames, 2, 1, 443, 1000);  // Reverse direction: same flow.
  tcp_frame(frames, 3, 4, 5, 6);
  captures.push_back(make_capture("S1", 0, frames));
  const auto counts = analyze(captures).flows_per_sample;
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].flows, 2u);
}

TEST(FlowAggregate, StitchesAcrossSamples) {
  // "We also analyzed across samples to piece together flow snippets."
  std::vector<RawCapture> captures;
  net::FrameStore frames;
  tcp_frame(frames, 1, 2, 1000, 443, 500, 0);
  captures.push_back(make_capture("S1", 0, frames, 0));
  net::FrameStore frames2;
  tcp_frame(frames2, 1, 2, 1000, 443, 700, util::kSecond);
  captures.push_back(make_capture("S1", 0, frames2, 10 * util::kMinute));
  const auto flows = analyze(captures).flow_aggregates;
  ASSERT_EQ(flows.size(), 1u);
  const FlowAggregate& agg = flows.begin()->second;
  EXPECT_EQ(agg.frames, 2u);
  EXPECT_EQ(agg.wire_bytes, 1200u);
  EXPECT_EQ(agg.samples, 2u);
  EXPECT_GT(agg.last_seen, agg.first_seen);
}

TEST(FlowAggregate, RstCounting) {
  std::vector<RawCapture> captures;
  net::FrameStore frames;
  tcp_frame(frames, 1, 2, 1, 2, 256, 0, 100, net::tcp_flags::kRst);
  tcp_frame(frames, 1, 2, 1, 2, 256, 1, 100);
  captures.push_back(make_capture("S1", 0, frames));
  const auto flows = analyze(captures).flow_aggregates;
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows.begin()->second.rst_frames, 1u);
}

TEST(TcpControl, ClassifiesFlags) {
  net::FrameBuilder ack;
  ack.ethernet(net::MacAddress::from_id(1), net::MacAddress::from_id(2))
      .ipv4(net::Ipv4Address::from_octets(10, 0, 0, 1),
            net::Ipv4Address::from_octets(10, 0, 0, 2))
      .tcp(1, 2, net::tcp_flags::kAck);  // Pure ACK, no payload.
  std::vector<RawCapture> captures;
  net::FrameStore frames;
  tcp_frame(frames, 1, 2, 1, 2, 256, 0, 100, net::tcp_flags::kSyn);
  tcp_frame(frames, 1, 2, 1, 2, 256, 0, 100,
            net::tcp_flags::kFin | net::tcp_flags::kAck);
  tcp_frame(frames, 1, 2, 1, 2, 256, 0, 100, net::tcp_flags::kRst);
  ack.build_into(frames);
  captures.push_back(make_capture("S1", 0, frames));
  const archive::TcpControlCounts result = analyze(captures).tcp_control;
  EXPECT_EQ(result.tcp_frames, 4u);
  EXPECT_EQ(result.syn, 1u);
  EXPECT_EQ(result.fin, 1u);
  EXPECT_EQ(result.rst, 1u);
  EXPECT_EQ(result.pure_ack, 1u);
}

TEST(FlowDistribution, BucketsSizesAndDurations) {
  std::vector<RawCapture> captures;
  // One two-frame flow spanning two samples 10 minutes apart, one tiny
  // single-frame flow.
  net::FrameStore frames;
  tcp_frame(frames, 1, 2, 1000, 443, 600, 0);
  captures.push_back(make_capture("S1", 0, frames, 0));
  net::FrameStore frames2;
  tcp_frame(frames2, 1, 2, 1000, 443, 600, 0);
  tcp_frame(frames2, 3, 4, 5, 6, 70, 0);
  captures.push_back(make_capture("S1", 0, frames2, 10 * util::kMinute));
  const auto result = analyze(captures).flow_distribution;
  EXPECT_EQ(result.flows, 2u);
  EXPECT_EQ(result.largest_flow_bytes, 1200u);
  // 1200 B lands in [1000, 1e4); 70 B in [10, 100).
  EXPECT_EQ(result.size_histogram.counts[3], 1u);
  EXPECT_EQ(result.size_histogram.counts[1], 1u);
  // The long flow's observed span is 600 s -> [300, 1800) bucket; the
  // single-frame flow has zero span -> [0, 1).
  EXPECT_EQ(result.duration_histogram.counts[5], 1u);
  EXPECT_EQ(result.duration_histogram.counts[0], 1u);
  EXPECT_DOUBLE_EQ(result.median_flow_bytes, 635.0);
  // Two flows of 70 and 1200 bytes: the tail quantiles interpolate along
  // the same rank rule as util::percentile.
  EXPECT_DOUBLE_EQ(result.p95_flow_bytes,
                   util::percentile(std::vector<double>{70.0, 1200.0}, 95.0));
  EXPECT_DOUBLE_EQ(result.p99_flow_bytes,
                   util::percentile(std::vector<double>{70.0, 1200.0}, 99.0));
}

TEST(FlowDistribution, EmptyInput) {
  const auto result = analyze({}).flow_distribution;
  EXPECT_EQ(result.flows, 0u);
  EXPECT_DOUBLE_EQ(result.median_flow_bytes, 0.0);
  EXPECT_DOUBLE_EQ(result.p95_flow_bytes, 0.0);
  EXPECT_DOUBLE_EQ(result.p99_flow_bytes, 0.0);
}

TEST(TopStacks, OrdersByFrequencyAndReportsFractions) {
  std::vector<RawCapture> captures;
  net::FrameStore frames;
  tcp_frame(frames, 1, 2, 1, 5201);
  tcp_frame(frames, 3, 4, 5, 5201);
  tcp_frame(frames, 5, 6, 7, 5201);  // Three identical stacks.
  tcp_frame(frames, 1, 2, 1, 443);
  captures.push_back(make_capture("S1", 0, frames));
  const auto stacks = analyze(captures).stacks;
  ASSERT_GE(stacks.size(), 2u);
  EXPECT_EQ(stacks[0].frames, 3u);
  EXPECT_DOUBLE_EQ(stacks[0].fraction, 0.75);
  EXPECT_NE(stacks[0].stack.find("eth/vlan/mpls/ipv4/tcp"),
            std::string::npos);
  EXPECT_GE(stacks[0].frames, stacks[1].frames);
}

TEST(TopStacks, KLimitsOutput) {
  // Stacks with 0..11 VLAN tags: twelve distinct stacks. The analysis keeps
  // them all; top_stacks.csv lists the ten most frequent.
  net::FrameStore frames;
  for (int tags = 0; tags < 12; ++tags) {
    net::FrameBuilder b;
    b.ethernet(net::MacAddress::from_id(1), net::MacAddress::from_id(2));
    for (int t = 0; t < tags; ++t) b.vlan(static_cast<std::uint16_t>(10 + t));
    b.ipv4(net::Ipv4Address::from_octets(10, 0, 0, 1),
           net::Ipv4Address::from_octets(10, 0, 0, 2))
        .tcp(1, 2, net::tcp_flags::kAck);
    b.build_into(frames);
  }
  std::vector<RawCapture> captures;
  captures.push_back(make_capture("S1", 0, frames));
  const auto stacks = analyze(captures).stacks;
  EXPECT_EQ(stacks.size(), 12u);
  std::ostringstream os;
  write_top_stacks_csv(os, stacks);
  const std::string csv = os.str();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1 + 10);
}

TEST(Tagging, ClassifiesVlanMplsCombinations) {
  net::FrameBuilder untagged;
  untagged.ethernet(net::MacAddress::from_id(1), net::MacAddress::from_id(2))
      .ipv4(net::Ipv4Address::from_octets(10, 0, 0, 1),
            net::Ipv4Address::from_octets(10, 0, 0, 2))
      .udp(1, 2)
      .payload(10);
  std::vector<RawCapture> captures;
  net::FrameStore frames;
  tcp_frame(frames, 1, 2, 1, 2);
  untagged.build_into(frames);
  captures.push_back(make_capture("S1", 0, frames));
  const archive::TaggingCounts result = analyze(captures).tagging;
  EXPECT_EQ(result.frames, 2u);
  EXPECT_EQ(result.vlan_tagged, 1u);
  EXPECT_EQ(result.mpls_tagged, 1u);
  EXPECT_EQ(result.both_tagged, 1u);
  EXPECT_EQ(result.untagged, 1u);
}

}  // namespace
}  // namespace patchwork::analysis
