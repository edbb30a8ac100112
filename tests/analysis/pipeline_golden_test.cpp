// Golden bytes for the Process step: run_pipeline over a small fixture that
// touches every analysis (two sites, a flow stitched across two samples,
// SYN/RST/pure-ACK frames, VLAN+MPLS-tagged and untagged frames, a frame
// the snaplen cuts inside a header, and a capture whose pcap does not
// open) must render every CSV byte-for-byte as pinned here. The pins are
// CRC32s of the ten files, plus the Digest counters and each site's pcap
// bytes, which no CSV shows; a change that moves any of them changes what
// the pipeline writes, not just how it computes it.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "analysis/pipeline.hpp"
#include "net/frame_builder.hpp"
#include "testing/fixtures.hpp"
#include "testing/thread_count.hpp"
#include "util/crc32.hpp"

namespace patchwork::analysis {
namespace {

using patchwork::testing::make_capture;
using patchwork::testing::tcp_frame;

net::Frame untagged_udp(util::Nanos ts) {
  net::FrameBuilder b;
  b.ethernet(net::MacAddress::from_id(5), net::MacAddress::from_id(6))
      .ipv4(net::Ipv4Address::from_octets(10, 0, 1, 5),
            net::Ipv4Address::from_octets(10, 0, 1, 6))
      .udp(5353, 53)
      .payload(40);
  return b.build(ts);
}

net::Frame pure_ack(util::Nanos ts) {
  net::FrameBuilder b;
  b.ethernet(net::MacAddress::from_id(7), net::MacAddress::from_id(8))
      .ipv4(net::Ipv4Address::from_octets(10, 0, 2, 7),
            net::Ipv4Address::from_octets(10, 0, 2, 8))
      .tcp(40000, 22, net::tcp_flags::kAck);
  return b.build(ts);
}

/// Pseudowire stack whose inner IPv4 header lies past a 64-byte snaplen.
net::Frame deep_pseudowire(util::Nanos ts) {
  net::FrameBuilder b;
  b.ethernet(net::MacAddress::from_id(9), net::MacAddress::from_id(10))
      .vlan(300)
      .mpls(16001)
      .pseudowire()
      .ethernet(net::MacAddress::from_id(11), net::MacAddress::from_id(12))
      .ipv4(net::Ipv4Address::from_octets(10, 0, 3, 1),
            net::Ipv4Address::from_octets(10, 0, 3, 2))
      .tcp(7000, 443)
      .payload(10)
      .pad_to(400);
  return b.build(ts);
}

std::vector<RawCapture> golden_profile() {
  using net::tcp_flags::kAck;
  using net::tcp_flags::kPsh;
  using net::tcp_flags::kRst;
  using net::tcp_flags::kSyn;
  constexpr util::Nanos ms = util::kMillisecond;
  std::vector<RawCapture> captures;
  // S1, first sample: the stitched flow's handshake and data in both
  // directions, a reset flow, a pure ACK and an untagged UDP frame.
  captures.push_back(make_capture(
      "S1", 0,
      {tcp_frame(1, 2, 1000, 443, 74, 0, 100, kSyn),
       tcp_frame(1, 2, 1000, 443, 1900, 2 * ms),
       tcp_frame(2, 1, 443, 1000, 90, 3 * ms, 100, kAck),
       tcp_frame(3, 4, 2000, 80, 120, 4 * ms, 100, kRst),
       pure_ack(5 * ms), untagged_udp(6 * ms)}));
  // S1, second sample ten minutes later: the stitched flow again and a
  // pseudowire frame. The 64-byte snaplen cuts both, the second inside its
  // inner IPv4 header.
  captures.push_back(make_capture(
      "S1", 1,
      {tcp_frame(1, 2, 1000, 443, 1500, 1 * ms, 100, kAck | kPsh),
       deep_pseudowire(2 * ms)},
      10 * util::kMinute, 64));
  // S2: one readable sample on another VLAN, and one whose pcap is garbage.
  captures.push_back(make_capture(
      "S2", 3,
      {tcp_frame(5, 6, 3000, 5201, 9000, 0, 200),
       tcp_frame(5, 6, 3000, 5201, 600, 1 * ms, 200),
       tcp_frame(6, 5, 5201, 3000, 66, 2 * ms, 200, kAck),
       untagged_udp(3 * ms)},
      2 * util::kMinute));
  RawCapture corrupt;
  corrupt.site = "S2";
  corrupt.port = 4;
  corrupt.start = 4 * util::kMinute;
  corrupt.duration = 20 * util::kSecond;
  corrupt.pcap = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02, 0x03};
  captures.push_back(std::move(corrupt));
  return captures;
}

std::uint32_t crc_of(const std::string& bytes) {
  return util::crc32(std::span(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

TEST(PipelineGolden, CsvBytesArePinned) {
  const std::map<std::string, std::uint32_t> golden = {
      {"flow_aggregate.csv", 3336279255u},
      {"flow_distribution.csv", 1306528470u},
      {"flows_per_sample.csv", 2642550254u},
      {"frame_sizes.csv", 3094127880u},
      {"header_occurrence.csv", 3654930704u},
      {"site_frame_sizes.csv", 1573833774u},
      {"site_variety.csv", 1513358692u},
      {"tagging.csv", 3803689864u},
      {"tcp_control.csv", 1011114681u},
      {"top_stacks.csv", 683363803u},
  };
  const std::vector<RawCapture> captures = golden_profile();
  for (std::size_t threads : {std::size_t{0}, std::size_t{3}}) {
    patchwork::testing::ScopedThreadCount scoped(threads);
    const ProfileReport report = run_pipeline(captures);
    EXPECT_EQ(report.digest_stats.frames, 12u);
    EXPECT_EQ(report.digest_stats.bad_records, 1u);
    EXPECT_EQ(report.digest_stats.truncated_frames, 2u);
    EXPECT_EQ(report.digest_stats.malformed_frames, 0u);
    std::map<std::string, std::uint64_t> pcap_bytes;
    for (const SiteLoad& load : report.site_loads) {
      pcap_bytes[load.site] = load.pcap_bytes;
    }
    EXPECT_EQ(pcap_bytes, (std::map<std::string, std::uint64_t>{
                              {"S1", 924u}, {"S2", 644u}}))
        << "threads=" << threads;
    ASSERT_EQ(report.csv_files.size(), golden.size());
    for (const auto& [name, crc] : golden) {
      ASSERT_TRUE(report.csv_files.count(name)) << name;
      const std::string& bytes = report.csv_files.at(name);
      EXPECT_EQ(crc_of(bytes), crc)
          << "threads=" << threads << " " << name << ":\n" << bytes;
    }
  }
}

}  // namespace
}  // namespace patchwork::analysis
