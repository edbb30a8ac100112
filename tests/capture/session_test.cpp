#include "capture/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "capture/anonymize.hpp"
#include "net/frame_builder.hpp"
#include "net/parser.hpp"
#include "testing/fixtures.hpp"
#include "util/crc32.hpp"

namespace patchwork::capture {
namespace {

using patchwork::testing::views_of;
using net::FrameBuilder;
using net::Ipv4Address;
using net::MacAddress;

std::vector<net::Frame> make_frames(std::size_t n, std::uint16_t dport = 5201,
                                    std::size_t size = 1514) {
  std::vector<net::Frame> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(FrameBuilder()
                      .ethernet(MacAddress::from_id(1), MacAddress::from_id(2))
                      .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                            Ipv4Address::from_octets(10, 0, 0, 2))
                      .tcp(50000, dport)
                      .payload(4)
                      .pad_to(size)
                      .build(static_cast<util::Nanos>(i) * 1000));
  }
  return out;
}

struct SessionTest : ::testing::Test {
  SessionTest() : rng(5) {}
  util::Rng rng;
  host::HostSpec host;
};

TEST_F(SessionTest, LowRateLosslessCapture) {
  CaptureConfig config;
  config.method = CaptureMethod::kTcpdump;
  config.snaplen = 200;
  CaptureSession session(config, host, rng);
  const auto frames = make_frames(500);
  const CaptureResult result =
      session.run(views_of(frames), /*offered_pps=*/1000.0);
  EXPECT_EQ(result.stats.captured, 500u);
  EXPECT_EQ(result.stats.dropped_capacity, 0u);
  EXPECT_GT(result.pcap.size(), 500 * 200);
}

TEST_F(SessionTest, PcapOutputIsReadableAndTruncated) {
  CaptureConfig config;
  config.snaplen = 200;
  CaptureSession session(config, host, rng);
  const auto frames = make_frames(50);
  CaptureResult result = session.run(views_of(frames), 1000.0);
  auto reader = pcap::PcapReader::open(std::move(result.pcap));
  ASSERT_TRUE(reader.has_value());
  std::size_t count = 0;
  while (auto f = reader->next_view()) {
    EXPECT_EQ(f->bytes.size(), 200u);
    EXPECT_EQ(f->wire_length, 1514u);
    ++count;
  }
  EXPECT_EQ(count, 50u);
}

TEST_F(SessionTest, TcpdumpOverloadLosesFrames) {
  // A 100G stream into the kernel path: most frames must be lost
  // (Section 8.1.2's ceiling is ~8.5 Gbps).
  CaptureConfig config;
  config.method = CaptureMethod::kTcpdump;
  CaptureSession session(config, host, rng);
  const auto frames = make_frames(2000);
  const double offered_pps = 100e9 / (8.0 * 1514.0);
  const CaptureResult result = session.run(views_of(frames), offered_pps);
  EXPECT_GT(result.stats.loss_fraction(), 0.8);
}

TEST_F(SessionTest, FpgaDpdkSustainsWhatTcpdumpCannot) {
  const double offered_pps = 100e9 / (8.0 * 1514.0);
  const auto frames = make_frames(2000);

  CaptureConfig fpga;
  fpga.method = CaptureMethod::kFpgaDpdk;
  fpga.cores = 5;
  fpga.snaplen = 200;
  CaptureSession fast(fpga, host, rng);
  const auto fast_result = fast.run(views_of(frames), offered_pps);
  EXPECT_LT(fast_result.stats.loss_fraction(), 0.05);

  CaptureConfig slow;
  slow.method = CaptureMethod::kTcpdump;
  slow.snaplen = 200;
  CaptureSession kernel(slow, host, rng);
  const auto slow_result = kernel.run(views_of(frames), offered_pps);
  EXPECT_GT(slow_result.stats.loss_fraction(),
            fast_result.stats.loss_fraction() + 0.5);
}

TEST_F(SessionTest, FilterRunsBeforeHostOnFpga) {
  // With FPGA offload, a filter that drops 100% of traffic means the host
  // path sees nothing — no capacity losses even at line rate.
  CaptureConfig config;
  config.method = CaptureMethod::kFpgaDpdk;
  config.cores = 1;
  config.filter = std::get<Filter>(Filter::compile("port 9999"));
  CaptureSession session(config, host, rng);
  const auto frames = make_frames(1000);
  const CaptureResult result =
      session.run(views_of(frames), 100e9 / (8.0 * 1514.0));
  EXPECT_EQ(result.stats.captured, 0u);
  EXPECT_EQ(result.stats.dropped_capacity, 0u);
  EXPECT_EQ(result.stats.filtered_out, 1000u);
}

TEST_F(SessionTest, SamplingThinsOutput) {
  CaptureConfig config;
  config.sample_1_in_n = 10;
  CaptureSession session(config, host, rng);
  const auto frames = make_frames(1000);
  const CaptureResult result = session.run(views_of(frames), 100.0);
  EXPECT_EQ(result.stats.captured, 100u);
  EXPECT_EQ(result.stats.sampled_out, 900u);
}

TEST_F(SessionTest, AnonymizedCaptureHidesRealAddresses) {
  CaptureConfig config;
  config.anonymize = true;
  config.snaplen = 200;
  CaptureSession session(config, host, rng);
  const auto frames = make_frames(10);
  CaptureResult result = session.run(views_of(frames), 100.0);
  auto reader = pcap::PcapReader::open(std::move(result.pcap));
  ASSERT_TRUE(reader.has_value());
  while (auto f = reader->next_view()) {
    const auto parsed =
        net::parse_bytes(f->bytes, f->wire_length, f->timestamp);
    ASSERT_TRUE(parsed.ipv4.has_value());
    EXPECT_NE(parsed.ipv4->src, Ipv4Address::from_octets(10, 0, 0, 1));
  }
}

TEST_F(SessionTest, InPlaceScrubMatchesScrubFrameSemantics) {
  // The zero-copy path writes the truncated record first and scrubs it in
  // the pcap stream; that must be byte-for-byte what truncating and then
  // scrubbing a copy of the frame produces.
  CaptureConfig config;
  config.anonymize = true;
  config.snaplen = 200;
  CaptureSession session(config, host, rng);
  const auto frames = make_frames(25);
  CaptureResult result =
      session.run(views_of(frames), /*offered_pps=*/100.0);
  ASSERT_EQ(result.stats.captured, frames.size());

  const Anonymizer anonymizer(config.anonymize_key);
  auto reader = pcap::PcapReader::open(std::move(result.pcap));
  ASSERT_TRUE(reader.has_value());
  for (const net::Frame& original : frames) {
    auto record = reader->next_view();
    ASSERT_TRUE(record.has_value());
    const net::Frame expected = patchwork::testing::scrub_copy(
        anonymizer, original.truncate(config.snaplen));
    EXPECT_EQ(record->timestamp, expected.timestamp());
    EXPECT_EQ(record->wire_length, expected.wire_length());
    ASSERT_EQ(record->bytes.size(), expected.captured_length());
    EXPECT_TRUE(std::equal(record->bytes.begin(), record->bytes.end(),
                           expected.bytes().begin()));
  }
  EXPECT_FALSE(reader->next_view().has_value());
}

// Offload accounting under overload: the NIC filters and samples first, so
// the host drains only the thinned stream, at offered_pps times the
// fraction that passed both. These pin every counter and the pcap bytes.
struct OffloadOverload {
  CaptureStats stats;
  std::uint32_t pcap_crc = 0;
};

OffloadOverload run_offload_overload(const char* filter_text,
                                     double pass_fraction,
                                     const host::HostSpec& host) {
  // Alternating 443/22 flows, so "port 443" passes exactly half.
  std::vector<net::Frame> frames;
  for (std::size_t i = 0; i < 600; ++i) {
    frames.push_back(FrameBuilder()
                         .ethernet(MacAddress::from_id(1),
                                   MacAddress::from_id(2))
                         .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
                               Ipv4Address::from_octets(10, 0, 0, 2))
                         .tcp(50000, i % 2 == 0 ? 443 : 22)
                         .payload(4)
                         .pad_to(1514)
                         .build(static_cast<util::Nanos>(i) * 1000));
  }
  CaptureConfig config;
  config.method = CaptureMethod::kFpgaDpdk;
  config.cores = 1;
  config.sample_1_in_n = 3;
  config.filter = std::get<Filter>(Filter::compile(filter_text));
  util::Rng rng(17);
  CaptureSession session(config, host, rng);
  const double offered_pps = 100e9 / (8.0 * 1514.0) * 4.0;
  // Even the thinned stream overruns the host, so the drain stage drops.
  EXPECT_GT(offered_pps * pass_fraction / 3.0, session.capacity_pps(1514.0));
  const CaptureResult result = session.run(views_of(frames), offered_pps);
  OffloadOverload out;
  out.stats = result.stats;
  out.pcap_crc = util::crc32(result.pcap);
  return out;
}

TEST_F(SessionTest, OffloadPartialFilterDrainsTheThinnedStream) {
  const OffloadOverload run = run_offload_overload("port 443", 0.5, host);
  EXPECT_EQ(run.stats.offered, 600u);
  EXPECT_EQ(run.stats.filtered_out, 300u);
  EXPECT_EQ(run.stats.sampled_out, 200u);
  EXPECT_EQ(run.stats.dropped_capacity, 66u);
  EXPECT_EQ(run.stats.captured, 34u);
  EXPECT_EQ(run.pcap_crc, 0x65ac8b64u);
}

TEST_F(SessionTest, OffloadMatchAllFilterDrainsTheSampledStream) {
  const OffloadOverload run = run_offload_overload("", 1.0, host);
  EXPECT_EQ(run.stats.offered, 600u);
  EXPECT_EQ(run.stats.filtered_out, 0u);
  EXPECT_EQ(run.stats.sampled_out, 400u);
  EXPECT_EQ(run.stats.dropped_capacity, 161u);
  EXPECT_EQ(run.stats.captured, 39u);
  EXPECT_EQ(run.pcap_crc, 0x5e70a2d7u);
}

TEST_F(SessionTest, EmptyInputProducesValidEmptyPcap) {
  CaptureConfig config;
  CaptureSession session(config, host, rng);
  CaptureResult result =
      session.run(std::span<const net::FrameView>(), 0.0);
  EXPECT_EQ(result.stats.offered, 0u);
  auto reader = pcap::PcapReader::open(std::move(result.pcap));
  ASSERT_TRUE(reader.has_value());
  EXPECT_FALSE(reader->next_view().has_value());
}

}  // namespace
}  // namespace patchwork::capture
