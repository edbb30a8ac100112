#include "capture/fpga_pipeline.hpp"

#include <gtest/gtest.h>

#include "net/frame_builder.hpp"
#include "testing/fixtures.hpp"

namespace patchwork::capture {
namespace {

using patchwork::testing::parse_view;
using net::FrameBuilder;
using net::Ipv4Address;
using net::MacAddress;

/// A store holding one IPv4/TCP frame to `dport`.
net::FrameStore tcp_frame(std::uint16_t dport, std::size_t size = 1514) {
  net::FrameStore store;
  FrameBuilder()
      .ethernet(MacAddress::from_id(1), MacAddress::from_id(2))
      .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
            Ipv4Address::from_octets(10, 0, 0, 2))
      .tcp(50000, dport)
      .payload(8)
      .pad_to(size)
      .build_into(store);
  return store;
}

TEST(FpgaPipeline, FilterDropsNonMatching) {
  CaptureConfig config;
  config.filter = std::get<Filter>(Filter::compile("port 443"));
  FpgaPipeline pipeline(config);
  const net::FrameStore frames = tcp_frame(443);
  const net::FrameView kept = frames.view(0);
  EXPECT_TRUE(pipeline.admit(kept));
  EXPECT_FALSE(pipeline.admit(tcp_frame(22).view(0)));
  std::vector<std::uint8_t> record(kept.bytes.begin(), kept.bytes.end());
  pipeline.edit_in_place(record, kept.wire_length, kept.timestamp);
  EXPECT_EQ(pipeline.stats().seen, 2u);
  EXPECT_EQ(pipeline.stats().filtered_out, 1u);
  EXPECT_EQ(pipeline.stats().emitted, 1u);
}

TEST(FpgaPipeline, OneInNSampling) {
  CaptureConfig config;
  config.sample_1_in_n = 4;
  FpgaPipeline pipeline(config);
  int kept = 0;
  for (int i = 0; i < 100; ++i) {
    if (pipeline.admit(tcp_frame(443).view(0))) ++kept;
  }
  EXPECT_EQ(kept, 25);
  EXPECT_EQ(pipeline.stats().sampled_out, 75u);
}

TEST(FpgaPipeline, SamplingCountsOnlyFilteredInFrames) {
  CaptureConfig config;
  config.filter = std::get<Filter>(Filter::compile("port 443"));
  config.sample_1_in_n = 2;
  FpgaPipeline pipeline(config);
  int kept = 0;
  for (int i = 0; i < 40; ++i) {
    // Alternate matching and non-matching frames.
    if (pipeline.admit(tcp_frame(i % 2 ? 443 : 22).view(0))) ++kept;
  }
  // 20 matched the filter; every 2nd kept.
  EXPECT_EQ(kept, 10);
}

TEST(FpgaPipeline, AnonymizationAppliedOnCard) {
  CaptureConfig config;
  config.anonymize = true;
  config.snaplen = 200;
  FpgaPipeline pipeline(config);
  const net::FrameStore frames = tcp_frame(443);
  const net::FrameView in = frames.view(0);
  ASSERT_TRUE(pipeline.admit(in));
  // The card scrubs the snaplen-truncated record bytes in place.
  std::vector<std::uint8_t> record(in.bytes.begin(),
                                   in.bytes.begin() + config.snaplen);
  pipeline.edit_in_place(record, in.wire_length, in.timestamp);
  const auto before = parse_view(in);
  const auto after = net::parse_bytes(record, in.wire_length, in.timestamp);
  ASSERT_TRUE(before.ipv4 && after.ipv4);
  EXPECT_NE(after.ipv4->src, before.ipv4->src);
}

TEST(FpgaPipeline, StatsResettable) {
  CaptureConfig config;
  FpgaPipeline pipeline(config);
  pipeline.admit(tcp_frame(443).view(0));
  pipeline.reset_stats();
  EXPECT_EQ(pipeline.stats().seen, 0u);
}

}  // namespace
}  // namespace patchwork::capture
