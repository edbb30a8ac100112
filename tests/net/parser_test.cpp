#include "net/parser.hpp"

#include <gtest/gtest.h>

#include "net/frame_builder.hpp"
#include "testing/fixtures.hpp"

namespace patchwork::net {
namespace {

using patchwork::testing::parse_built;

const MacAddress kSrc = MacAddress::from_id(1);
const MacAddress kDst = MacAddress::from_id(2);
const Ipv4Address kA = Ipv4Address::from_octets(10, 0, 0, 1);
const Ipv4Address kB = Ipv4Address::from_octets(10, 9, 9, 9);

TEST(Parser, ClassifiesByPort) {
  struct Case {
    std::uint16_t port;
    Protocol expected;
  };
  for (const auto& [port, expected] :
       {Case{22, Protocol::kSsh}, Case{80, Protocol::kHttp},
        Case{5201, Protocol::kIperf}}) {
    FrameBuilder b;
    b.ethernet(kSrc, kDst).ipv4(kA, kB).tcp(50000, port);
    if (port == 22) {
      b.ssh_banner();
    } else if (port == 80) {
      b.http_request();
    } else {
      b.payload(100);
    }
    const ParsedFrame parsed = parse_built(b);
    EXPECT_TRUE(parsed.has(expected)) << "port " << port;
  }
}

TEST(Parser, TlsOnPort443) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst)
      .ipv4(kA, kB)
      .tcp(50000, 443)
      .tls(23)
      .payload(256);
  const ParsedFrame parsed = parse_built(b);
  EXPECT_TRUE(parsed.has(Protocol::kTls));
}

TEST(Parser, PureAckHasNoPayloadLayer) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst)
      .vlan(5)
      .mpls(16000)
      .ipv4(kA, kB)
      .tcp(1, 2, tcp_flags::kAck);
  const ParsedFrame parsed = parse_built(b);
  EXPECT_EQ(parsed.stack_string(), "eth/vlan/mpls/ipv4/tcp");
  ASSERT_TRUE(parsed.tcp.has_value());
  EXPECT_EQ(parsed.tcp->flags, tcp_flags::kAck);
}

TEST(Parser, MplsFirstNibbleHeuristicIpv4) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst)
      .mpls(100)
      .ipv4(kA, kB)
      .udp(1, 2);
  EXPECT_EQ(parse_built(b).stack_string(), "eth/mpls/ipv4/udp");
}

TEST(Parser, MplsFirstNibbleHeuristicIpv6) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst)
      .mpls(100)
      .ipv6(Ipv6Address::from_words({0xfd00, 0, 0, 0, 0, 0, 0, 1}),
            Ipv6Address::from_words({0xfd00, 0, 0, 0, 0, 0, 0, 2}))
      .tcp(1, 22);
  EXPECT_EQ(parse_built(b).stack_string(), "eth/mpls/ipv6/tcp");
}

TEST(Parser, MplsFirstNibblePseudowire) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst)
      .mpls(100)
      .pseudowire()
      .ethernet(kSrc, kDst)
      .ipv4(kA, kB)
      .udp(1, 2);
  EXPECT_EQ(parse_built(b).stack_string(), "eth/mpls/pw/eth/ipv4/udp");
}

TEST(Parser, ExtractsTagsForFlowClassification) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst)
      .vlan(123)
      .mpls(16001)
      .mpls(16002)
      .pseudowire()
      .ethernet(kSrc, kDst)
      .ipv4(kA, kB)
      .tcp(1000, 2000);
  const ParsedFrame parsed = parse_built(b);
  ASSERT_EQ(parsed.vlan_ids.size(), 1u);
  EXPECT_EQ(parsed.vlan_ids[0], 123);
  ASSERT_EQ(parsed.mpls_labels.size(), 2u);
  EXPECT_EQ(parsed.mpls_labels[0], 16001u);
  EXPECT_EQ(parsed.mpls_labels[1], 16002u);
  ASSERT_TRUE(parsed.ipv4.has_value());
  EXPECT_EQ(parsed.ipv4->src, kA);
  ASSERT_TRUE(parsed.tcp.has_value());
  EXPECT_EQ(parsed.tcp->dst_port, 2000);
}

TEST(Parser, SnaplenTruncationMarksTruncatedLayer) {
  FrameBuilder full;
  full.ethernet(kSrc, kDst)
      .vlan(5)
      .ipv4(kA, kB)
      .tcp(1, 2)
      .payload(1000);
  // Cut inside the IPv4 header: eth(14) + vlan(4) + 10 bytes of IP.
  const ParsedFrame parsed = parse_built(full, 28);
  EXPECT_TRUE(parsed.has(Protocol::kTruncated));
  EXPECT_EQ(parsed.stack_string(), "eth/vlan/truncated");
  EXPECT_FALSE(parsed.ipv4.has_value());
}

TEST(Parser, TruncationAfterHeadersKeepsThem) {
  FrameBuilder full;
  full.ethernet(kSrc, kDst)
      .ipv4(kA, kB)
      .tcp(1, 5201)
      .payload(1400);
  // The paper's profile snaplen.
  const ParsedFrame parsed = parse_built(full, 200);
  EXPECT_TRUE(parsed.has(Protocol::kIpv4));
  EXPECT_TRUE(parsed.has(Protocol::kTcp));
  EXPECT_TRUE(parsed.has(Protocol::kIperf));
  EXPECT_EQ(parsed.wire_length, 14u + 20u + 20u + 1400u);
  EXPECT_EQ(parsed.captured_length, 200u);
}

TEST(Parser, ArpFrame) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst)
      .arp(kSrc, kA, kB)
      .pad_to(64);
  const ParsedFrame parsed = parse_built(b);
  EXPECT_TRUE(parsed.has(Protocol::kArp));
  EXPECT_FALSE(parsed.ipv4.has_value());
}

TEST(Parser, DnsOverUdp) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst)
      .ipv4(kA, kB)
      .udp(40000, 53)
      .dns(0x99)
      .payload(20);
  EXPECT_TRUE(parse_built(b).has(Protocol::kDns));
}

TEST(Parser, NtpOverUdp) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst)
      .ipv4(kA, kB)
      .udp(40000, 123)
      .ntp();
  EXPECT_TRUE(parse_built(b).has(Protocol::kNtp));
}

TEST(Parser, IcmpEcho) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst)
      .ipv4(kA, kB)
      .icmp(8, 0)
      .payload(48);
  EXPECT_TRUE(parse_built(b).has(Protocol::kIcmp));
}

TEST(Parser, GreCarriesInnerEthernet) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst)
      .ipv4(kA, kB)
      .gre()
      .ethernet(kDst, kSrc)
      .ipv4(kB, kA)
      .tcp(1000, 5201)
      .payload(50);
  const ParsedFrame parsed = parse_built(b);
  EXPECT_EQ(parsed.stack_string(), "eth/ipv4/gre/eth/ipv4/tcp/iperf");
  EXPECT_EQ(parsed.count(Protocol::kEthernet), 2u);
  // Innermost network/transport fields win for flow classification.
  ASSERT_TRUE(parsed.ipv4.has_value());
  EXPECT_EQ(parsed.ipv4->src, kB);
  ASSERT_TRUE(parsed.tcp.has_value());
  EXPECT_EQ(parsed.tcp->dst_port, 5201);
}

TEST(Parser, GreCarriesIpDirectly) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst)
      .ipv4(kA, kB)
      .gre()
      .ipv4(kB, kA)
      .udp(1, 2)
      .payload(10);
  EXPECT_EQ(parse_built(b).stack_string(), "eth/ipv4/gre/ipv4/udp/data");
}

TEST(Parser, GreWithOptionsIsNotInvented) {
  // A GRE header with option flags set is outside the minimal codec: the
  // dissector must not claim it parsed one.
  Bytes buf;
  EthernetHeader eth;
  eth.src = kSrc;
  eth.dst = kDst;
  eth.ethertype = kEtherTypeIpv4;
  eth.encode(buf);
  Ipv4Header ip;
  ip.src = kA;
  ip.dst = kB;
  ip.protocol = kIpProtoGre;
  ip.total_length = 20 + 8;
  ip.encode(buf);
  buf.push_back(0x80);  // Checksum-present flag.
  buf.push_back(0x00);
  buf.push_back(0x08);
  buf.push_back(0x00);
  const ParsedFrame parsed = parse_bytes(buf, buf.size(), 0);
  EXPECT_FALSE(parsed.has(Protocol::kGre));
}

TEST(Parser, EmptyBufferYieldsNoLayers) {
  const ParsedFrame parsed = parse_bytes({}, 0, 0);
  EXPECT_TRUE(parsed.layers.empty());
  EXPECT_EQ(parsed.header_depth(), 0u);
}

TEST(Parser, UnknownEthertypeBecomesPayload) {
  Bytes buf;
  EthernetHeader eth;
  eth.src = kSrc;
  eth.dst = kDst;
  eth.ethertype = 0x1234;  // Unknown.
  eth.encode(buf);
  buf.insert(buf.end(), 50, 0xaa);
  const ParsedFrame parsed = parse_bytes(buf, buf.size(), 0);
  EXPECT_EQ(parsed.stack_string(), "eth/data");
}

TEST(Parser, HeaderDepthExcludesPayload) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst)
      .vlan(1)
      .ipv4(kA, kB)
      .tcp(1, 5201)
      .payload(10);
  const ParsedFrame parsed = parse_built(b);
  EXPECT_EQ(parsed.header_depth(), 4u);  // eth, vlan, ipv4, tcp.
  EXPECT_EQ(parsed.layers.size(), 5u);   // + iperf payload.
}

TEST(Parser, DeepestPaperStackDepth) {
  // "Ethernet / VLAN / MPLS / MPLS / PseudoWire / Ethernet / IPv6 / SSH"
  FrameBuilder b;
  b.ethernet(kSrc, kDst)
      .vlan(2)
      .mpls(1)
      .mpls(2)
      .pseudowire()
      .ethernet(kSrc, kDst)
      .ipv6(Ipv6Address::from_words({0xfd00, 0, 0, 0, 0, 0, 0, 1}),
            Ipv6Address::from_words({0xfd00, 0, 0, 0, 0, 0, 0, 2}))
      .tcp(50000, 22)
      .ssh_banner();
  const ParsedFrame parsed = parse_built(b);
  // eth vlan mpls mpls pw eth ipv6 tcp ssh = 9 headers.
  EXPECT_EQ(parsed.header_depth(), 9u);
}

}  // namespace
}  // namespace patchwork::net
