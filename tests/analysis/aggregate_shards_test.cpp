// Chunked fold contract: analyze() must produce exactly the same result —
// every histogram, counter, ranked row and flow-map field — however its
// input is cut into chunks. Chunks are contiguous capture ranges of about
// equal pcap bytes, merged in chunk order (so some come out empty when one
// capture outweighs the rest), flow maps merge per fixed FlowKeyHash % 16
// shard, and every field merges by a sum, min, max or union, so nothing
// may depend on the thread count or on scheduling.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyses.hpp"
#include "net/frame_builder.hpp"
#include "testing/fixtures.hpp"
#include "testing/thread_count.hpp"

namespace patchwork::analysis {
namespace {

using patchwork::testing::make_capture;
using patchwork::testing::ScopedThreadCount;
using patchwork::testing::tcp_frame;

/// `count` frames of one site's traffic over a few host pairs. Every
/// seventh frame is an untagged UDP frame, so stacks and tagging have more
/// than one row.
net::FrameStore site_frames(int site, int count) {
  net::FrameStore frames;
  for (int f = 0; f < count; ++f) {
    const auto a = static_cast<std::uint8_t>(1 + (f + site) % 7);
    const auto b = static_cast<std::uint8_t>(8 + f % 5);
    const util::Nanos ts = static_cast<util::Nanos>(f) * util::kMillisecond;
    if (f % 7 == 6) {
      net::FrameBuilder udp;
      udp.ethernet(net::MacAddress::from_id(a), net::MacAddress::from_id(b))
          .ipv4(net::Ipv4Address::from_octets(10, 0, 0, a),
                net::Ipv4Address::from_octets(10, 0, 0, b))
          .udp(static_cast<std::uint16_t>(4000 + f % 3), 53)
          .payload(20);
      udp.build_into(frames, ts);
      continue;
    }
    tcp_frame(frames, a, b, static_cast<std::uint16_t>(1000 + f % 17),
              static_cast<std::uint16_t>(f % 3 ? 443 : 8080),
              64 + static_cast<std::size_t>((f * 131) % 1400), ts,
              static_cast<std::uint16_t>(200 + site),
              static_cast<std::uint8_t>(f % 11 ? net::tcp_flags::kAck
                                               : net::tcp_flags::kRst));
  }
  return frames;
}

/// Many captures, many sites, flows recurring across samples so
/// cross-sample stitching (samples counting, first/last_seen spans) has
/// real work. The second capture holds more pcap bytes than all the others
/// together, one capture is a pcap header with no records, and the last
/// site's only capture does not open.
std::vector<RawCapture> stitched_profile() {
  std::vector<RawCapture> captures;
  for (int site = 0; site < 5; ++site) {
    for (int sample = 0; sample < 4; ++sample) {
      captures.push_back(make_capture(
          "S" + std::to_string(site), static_cast<std::uint32_t>(sample),
          site_frames(site, 60 + site * 11 + sample * 5),
          sample * 7 * util::kMinute));
    }
  }
  captures.insert(captures.begin() + 1,
                  make_capture("S2", 9, site_frames(2, 3000),
                               30 * util::kMinute));
  captures.insert(captures.begin() + 13,
                  make_capture("S3", 8, net::FrameStore{}, 40 * util::kMinute));
  RawCapture corrupt;
  corrupt.site = "S5";
  corrupt.pcap = {0xde, 0xad, 0xbe, 0xef};
  captures.push_back(corrupt);
  return captures;
}

void expect_flow_maps_equal(const FlowMap& a, const FlowMap& b,
                            const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (const auto& [key, agg] : a) {
    auto it = b.find(key);
    ASSERT_NE(it, b.end()) << label << ": missing " << key.to_string();
    EXPECT_EQ(agg.frames, it->second.frames) << label << key.to_string();
    EXPECT_EQ(agg.wire_bytes, it->second.wire_bytes)
        << label << key.to_string();
    EXPECT_EQ(agg.first_seen, it->second.first_seen)
        << label << key.to_string();
    EXPECT_EQ(agg.last_seen, it->second.last_seen)
        << label << key.to_string();
    EXPECT_EQ(agg.rst_frames, it->second.rst_frames)
        << label << key.to_string();
    EXPECT_EQ(agg.samples, it->second.samples) << label << key.to_string();
    EXPECT_EQ(agg.last_sample, it->second.last_sample)
        << label << key.to_string();
  }
}

void expect_analyses_equal(const ProfileAnalysis& a, const ProfileAnalysis& b,
                           const std::string& label) {
  EXPECT_EQ(a.digest_stats.frames, b.digest_stats.frames) << label;
  EXPECT_EQ(a.digest_stats.bad_records, b.digest_stats.bad_records) << label;
  EXPECT_EQ(a.digest_stats.truncated_frames, b.digest_stats.truncated_frames)
      << label;
  EXPECT_EQ(a.digest_stats.malformed_frames, b.digest_stats.malformed_frames)
      << label;

  EXPECT_EQ(a.frame_sizes, b.frame_sizes) << label;

  EXPECT_EQ(a.header_occurrence.frames, b.header_occurrence.frames) << label;
  EXPECT_EQ(a.header_occurrence.occurrences, b.header_occurrence.occurrences)
      << label;

  EXPECT_EQ(a.tcp_control.tcp_frames, b.tcp_control.tcp_frames) << label;
  EXPECT_EQ(a.tcp_control.syn, b.tcp_control.syn) << label;
  EXPECT_EQ(a.tcp_control.fin, b.tcp_control.fin) << label;
  EXPECT_EQ(a.tcp_control.rst, b.tcp_control.rst) << label;
  EXPECT_EQ(a.tcp_control.pure_ack, b.tcp_control.pure_ack) << label;

  EXPECT_EQ(a.tagging.frames, b.tagging.frames) << label;
  EXPECT_EQ(a.tagging.vlan_tagged, b.tagging.vlan_tagged) << label;
  EXPECT_EQ(a.tagging.mpls_tagged, b.tagging.mpls_tagged) << label;
  EXPECT_EQ(a.tagging.both_tagged, b.tagging.both_tagged) << label;
  EXPECT_EQ(a.tagging.untagged, b.tagging.untagged) << label;

  // Stack rows in rank order, ties included.
  ASSERT_EQ(a.stacks.size(), b.stacks.size()) << label;
  for (std::size_t i = 0; i < a.stacks.size(); ++i) {
    EXPECT_EQ(a.stacks[i].stack, b.stacks[i].stack) << label << i;
    EXPECT_EQ(a.stacks[i].frames, b.stacks[i].frames) << label << i;
    EXPECT_EQ(a.stacks[i].fraction, b.stacks[i].fraction) << label << i;
  }

  // Per-sample flow counts in capture order.
  ASSERT_EQ(a.flows_per_sample.size(), b.flows_per_sample.size()) << label;
  for (std::size_t i = 0; i < a.flows_per_sample.size(); ++i) {
    EXPECT_EQ(a.flows_per_sample[i].site, b.flows_per_sample[i].site)
        << label << i;
    EXPECT_EQ(a.flows_per_sample[i].start, b.flows_per_sample[i].start)
        << label << i;
    EXPECT_EQ(a.flows_per_sample[i].flows, b.flows_per_sample[i].flows)
        << label << i;
  }

  ASSERT_EQ(a.site_loads.size(), b.site_loads.size()) << label;
  for (std::size_t i = 0; i < a.site_loads.size(); ++i) {
    const SiteLoad& x = a.site_loads[i];
    const SiteLoad& y = b.site_loads[i];
    const std::string site = label + x.site;
    EXPECT_EQ(x.site, y.site) << site;
    EXPECT_EQ(x.samples, y.samples) << site;
    EXPECT_EQ(x.frames, y.frames) << site;
    EXPECT_EQ(x.wire_bytes, y.wire_bytes) << site;
    EXPECT_EQ(x.pcap_bytes, y.pcap_bytes) << site;
    EXPECT_EQ(x.switch_drops_suspected, y.switch_drops_suspected) << site;
    EXPECT_EQ(x.frame_sizes, y.frame_sizes) << site;
    EXPECT_EQ(x.distinct_headers, y.distinct_headers) << site;
    EXPECT_EQ(x.deepest_stack, y.deepest_stack) << site;
  }

  expect_flow_maps_equal(a.flow_aggregates, b.flow_aggregates, label);
  EXPECT_EQ(a.distinct_flows, b.distinct_flows) << label;
  EXPECT_EQ(a.largest_flow_bytes, b.largest_flow_bytes) << label;
  EXPECT_EQ(a.flow_distribution.size_histogram,
            b.flow_distribution.size_histogram)
      << label;
  EXPECT_EQ(a.flow_distribution.duration_histogram,
            b.flow_distribution.duration_histogram)
      << label;
  EXPECT_EQ(a.flow_distribution.median_flow_bytes,
            b.flow_distribution.median_flow_bytes)
      << label;
  EXPECT_EQ(a.flow_distribution.p99_flow_bytes,
            b.flow_distribution.p99_flow_bytes)
      << label;
}

ProfileAnalysis analyze_at(std::size_t threads,
                           const std::vector<RawCapture>& captures) {
  ScopedThreadCount scoped(threads);
  return analyze(captures);
}

TEST(AggregateShards, ShardedMatchesSingleMapAtEveryThreadCount) {
  const std::vector<RawCapture> captures = stitched_profile();
  ASSERT_GT(captures.size(), 1u);
  std::size_t rest = 0;
  for (const RawCapture& capture : captures) rest += capture.pcap.size();
  rest -= captures[1].pcap.size();
  EXPECT_GT(captures[1].pcap.size(), rest);  // Some chunks come out empty.

  const ProfileAnalysis reference = analyze_at(0, captures);  // One chunk.
  EXPECT_GT(reference.flow_aggregates.size(), 1u);
  EXPECT_GT(reference.stacks.size(), 1u);
  EXPECT_EQ(reference.site_loads.size(), 6u);
  EXPECT_EQ(reference.flows_per_sample.size(), captures.size());
  EXPECT_EQ(reference.digest_stats.bad_records, 1u);

  for (std::size_t threads :
       {std::size_t{2}, std::size_t{3}, std::size_t{8}, std::size_t{32}}) {
    expect_analyses_equal(reference, analyze_at(threads, captures),
                          "threads=" + std::to_string(threads) + " ");
  }
}

TEST(AggregateShards, SingleFileFallsBackToSerial) {
  std::vector<RawCapture> captures = stitched_profile();
  captures.resize(1);
  expect_analyses_equal(analyze_at(0, captures), analyze_at(8, captures),
                        "single-file ");
}

TEST(AggregateShards, MoreThreadsThanFiles) {
  std::vector<RawCapture> captures = stitched_profile();
  captures.resize(3);
  // Chunks clamp to captures.size().
  expect_analyses_equal(analyze_at(0, captures), analyze_at(16, captures),
                        "clamped-chunks ");
}

}  // namespace
}  // namespace patchwork::analysis
