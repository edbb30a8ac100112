#include "capture/anonymize.hpp"

#include <gtest/gtest.h>

#include "net/checksum.hpp"
#include "net/frame_builder.hpp"
#include "testing/fixtures.hpp"

namespace patchwork::capture {
namespace {

using patchwork::testing::parse_view;
using patchwork::testing::scrub_copy;
using net::FrameBuilder;
using net::Ipv4Address;
using net::MacAddress;

net::FrameStore sample_frame() {
  net::FrameStore store;
  FrameBuilder()
      .ethernet(MacAddress::from_id(11), MacAddress::from_id(22))
      .vlan(42)
      .ipv4(Ipv4Address::from_octets(10, 1, 2, 3),
            Ipv4Address::from_octets(10, 4, 5, 6))
      .tcp(50000, 443)
      .tls()
      .payload(64)
      .build_into(store);
  return store;
}

/// Dissect the bytes scrub_copy() returns for an untruncated frame.
net::ParsedFrame parse_scrubbed(const net::Bytes& bytes) {
  return net::parse_bytes(bytes, bytes.size(), 0);
}

TEST(Anonymizer, MapIpv4PreservesSlashEight) {
  Anonymizer anon(123);
  const std::uint32_t addr = Ipv4Address::from_octets(10, 1, 2, 3).value;
  const std::uint32_t mapped = anon.map_ipv4(addr);
  EXPECT_EQ(mapped >> 24, 10u);
  EXPECT_NE(mapped, addr);
}

TEST(Anonymizer, MappingIsDeterministicPerKey) {
  Anonymizer a(123), b(123), c(456);
  const std::uint32_t addr = Ipv4Address::from_octets(10, 1, 2, 3).value;
  EXPECT_EQ(a.map_ipv4(addr), b.map_ipv4(addr));
  EXPECT_NE(a.map_ipv4(addr), c.map_ipv4(addr));
}

TEST(Anonymizer, DistinctAddressesStayDistinct) {
  Anonymizer anon(99);
  const std::uint32_t a = Ipv4Address::from_octets(10, 1, 2, 3).value;
  const std::uint32_t b = Ipv4Address::from_octets(10, 1, 2, 4).value;
  EXPECT_NE(anon.map_ipv4(a), anon.map_ipv4(b));
}

TEST(Anonymizer, ScrubRewritesAddressesInPlace) {
  Anonymizer anon(7);
  const net::FrameStore original = sample_frame();
  const net::ParsedFrame before = parse_view(original.view(0));
  const net::ParsedFrame after =
      parse_scrubbed(scrub_copy(anon, original.view(0)));
  ASSERT_TRUE(before.ipv4 && after.ipv4);
  EXPECT_NE(after.ipv4->src, before.ipv4->src);
  EXPECT_NE(after.ipv4->dst, before.ipv4->dst);
  // /8 preserved so 10/8 membership survives for analyses.
  EXPECT_TRUE(after.ipv4->src.in_ten_slash_eight());
  EXPECT_TRUE(after.ipv4->dst.in_ten_slash_eight());
}

TEST(Anonymizer, ScrubPreservesStructureAndPorts) {
  Anonymizer anon(7);
  const net::ParsedFrame parsed =
      parse_scrubbed(scrub_copy(anon, sample_frame().view(0)));
  EXPECT_EQ(parsed.stack_string(), "eth/vlan/ipv4/tcp/tls/data");
  ASSERT_TRUE(parsed.tcp.has_value());
  EXPECT_EQ(parsed.tcp->src_port, 50000);
  EXPECT_EQ(parsed.tcp->dst_port, 443);
  ASSERT_EQ(parsed.vlan_ids.size(), 1u);
  EXPECT_EQ(parsed.vlan_ids[0], 42);
}

TEST(Anonymizer, Ipv4ChecksumStillVerifies) {
  Anonymizer anon(7);
  const net::Bytes scrubbed = scrub_copy(anon, sample_frame().view(0));
  // The IPv4 header (offset 18: eth+vlan) must checksum to zero.
  const net::ByteView bytes = scrubbed;
  EXPECT_EQ(net::internet_checksum(bytes.subspan(18, 20)), 0);
}

TEST(Anonymizer, MacsBecomeLocallyAdministered) {
  Anonymizer anon(7);
  const net::Bytes scrubbed = scrub_copy(anon, sample_frame().view(0));
  EXPECT_EQ(scrubbed[0], 0x02);  // dst MAC first byte.
  EXPECT_EQ(scrubbed[6], 0x02);  // src MAC first byte.
}

TEST(Anonymizer, SameFlowMapsConsistentlyAcrossFrames) {
  // Flows must remain correlatable after anonymization.
  Anonymizer anon(7);
  const auto p1 = parse_scrubbed(scrub_copy(anon, sample_frame().view(0)));
  const auto p2 = parse_scrubbed(scrub_copy(anon, sample_frame().view(0)));
  ASSERT_TRUE(p1.ipv4 && p2.ipv4);
  EXPECT_EQ(p1.ipv4->src, p2.ipv4->src);
  EXPECT_EQ(p1.ipv4->dst, p2.ipv4->dst);
}

TEST(Anonymizer, Ipv6InterfaceIdScrambledPrefixKept) {
  Anonymizer anon(7);
  net::FrameStore f;
  FrameBuilder()
      .ethernet(MacAddress::from_id(1), MacAddress::from_id(2))
      .ipv6(net::Ipv6Address::from_words({0xfd00, 1, 2, 3, 4, 5, 6, 7}),
            net::Ipv6Address::from_words({0xfd00, 9, 9, 9, 8, 8, 8, 8}))
      .udp(1000, 2000)
      .payload(32)
      .build_into(f);
  const auto parsed = parse_scrubbed(scrub_copy(anon, f.view(0)));
  ASSERT_TRUE(parsed.ipv6.has_value());
  // First 8 bytes (prefix) kept; last 8 scrambled.
  const auto orig = parse_view(f.view(0));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(parsed.ipv6->src.bytes[static_cast<std::size_t>(i)],
              orig.ipv6->src.bytes[static_cast<std::size_t>(i)]);
  }
  bool changed = false;
  for (int i = 8; i < 16; ++i) {
    changed |= parsed.ipv6->src.bytes[static_cast<std::size_t>(i)] !=
               orig.ipv6->src.bytes[static_cast<std::size_t>(i)];
  }
  EXPECT_TRUE(changed);
}

}  // namespace
}  // namespace patchwork::capture
