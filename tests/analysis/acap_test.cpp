#include "analysis/acap.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "net/frame_builder.hpp"
#include "testing/fixtures.hpp"

namespace patchwork::analysis {
namespace {

using patchwork::testing::parse_built;
using patchwork::testing::parse_view;
using net::FrameBuilder;
using net::Ipv4Address;
using net::MacAddress;

net::ParsedFrame parsed_tcp(Ipv4Address src, Ipv4Address dst,
                            std::uint16_t sport, std::uint16_t dport,
                            std::uint16_t vlan = 0) {
  FrameBuilder b;
  b.ethernet(MacAddress::from_id(1), MacAddress::from_id(2));
  if (vlan) b.vlan(vlan);
  b.ipv4(src, dst).tcp(sport, dport).payload(10);
  return parse_built(b);
}

TEST(FlowKey, BidirectionalFramesShareOneKey) {
  const auto a = Ipv4Address::from_octets(10, 0, 0, 1);
  const auto b = Ipv4Address::from_octets(10, 0, 0, 2);
  const FlowKey forward = flow_key_of(parsed_tcp(a, b, 50000, 443));
  const FlowKey reverse = flow_key_of(parsed_tcp(b, a, 443, 50000));
  EXPECT_EQ(forward, reverse);
  EXPECT_EQ(FlowKeyHash{}(forward), FlowKeyHash{}(reverse));
}

TEST(FlowKey, VirtualizationTagsSeparateIdenticalAddresses) {
  // Section 6.2.4: "even if the same 10/8 addresses are used in different
  // slices, they are treated as different flows."
  const auto a = Ipv4Address::from_octets(10, 0, 0, 1);
  const auto b = Ipv4Address::from_octets(10, 0, 0, 2);
  const FlowKey slice1 = flow_key_of(parsed_tcp(a, b, 1000, 2000, 100));
  const FlowKey slice2 = flow_key_of(parsed_tcp(a, b, 1000, 2000, 200));
  EXPECT_NE(slice1, slice2);
}

TEST(FlowKey, PortsDistinguishFlows) {
  const auto a = Ipv4Address::from_octets(10, 0, 0, 1);
  const auto b = Ipv4Address::from_octets(10, 0, 0, 2);
  EXPECT_NE(flow_key_of(parsed_tcp(a, b, 1000, 443)),
            flow_key_of(parsed_tcp(a, b, 1001, 443)));
}

TEST(FlowKey, MplsLabelsIncluded) {
  FrameBuilder b1, b2;
  const auto a = Ipv4Address::from_octets(10, 0, 0, 1);
  const auto b = Ipv4Address::from_octets(10, 0, 0, 2);
  b1.ethernet(MacAddress::from_id(1), MacAddress::from_id(2))
      .mpls(16001)
      .ipv4(a, b)
      .udp(1, 2);
  b2.ethernet(MacAddress::from_id(1), MacAddress::from_id(2))
      .mpls(16002)
      .ipv4(a, b)
      .udp(1, 2);
  EXPECT_NE(flow_key_of(parse_built(b1)),
            flow_key_of(parse_built(b2)));
}

TEST(FlowKey, OrderingIsStrictWeak) {
  const auto a = Ipv4Address::from_octets(10, 0, 0, 1);
  const auto b = Ipv4Address::from_octets(10, 0, 0, 2);
  const FlowKey k1 = flow_key_of(parsed_tcp(a, b, 1, 2));
  const FlowKey k2 = flow_key_of(parsed_tcp(a, b, 3, 4));
  EXPECT_NE(k1 < k2, k2 < k1);
  EXPECT_FALSE(k1 < k1);
}

TEST(FlowKey, ToStringMentionsTags) {
  const auto a = Ipv4Address::from_octets(10, 0, 0, 1);
  const auto b = Ipv4Address::from_octets(10, 0, 0, 2);
  const FlowKey k = flow_key_of(parsed_tcp(a, b, 1, 2, 77));
  EXPECT_NE(k.to_string().find("77"), std::string::npos);
}

TEST(FlowKey, ToStringGoldenFormat) {
  // The string keys archived sketches and flow_aggregate.csv rows; it
  // omits addresses, so these are set only to show they do not appear.
  FlowKey tcp;
  tcp.ip_version = 4;
  tcp.addr_a = {10, 0, 0, 1};
  tcp.addr_b = {10, 0, 0, 2};
  tcp.l4_proto = 6;
  tcp.port_a = 1234;
  tcp.port_b = 80;
  EXPECT_EQ(tcp.to_string(), "vlan[]mpls[]v4 proto6 1234<->80");

  FlowKey tagged = tcp;
  tagged.vlan_ids = {100, 7};
  tagged.mpls_labels = {16, 1, 300};
  EXPECT_EQ(tagged.to_string(), "vlan[100,7]mpls[16,1,300]v4 proto6 1234<->80");

  EXPECT_EQ(FlowKey{}.to_string(), "vlan[]mpls[]v0 proto0 0<->0");

  FlowKey v6;
  v6.ip_version = 6;
  v6.addr_a[15] = 1;
  v6.l4_proto = 17;
  v6.port_a = 53;
  v6.port_b = 5353;
  EXPECT_EQ(v6.to_string(), "vlan[]mpls[]v6 proto17 53<->5353");

  FlowKey widest;
  widest.vlan_ids = {4095, 4095};
  widest.mpls_labels = {1048575};
  widest.ip_version = 4;
  widest.l4_proto = 255;
  widest.port_a = 65535;
  widest.port_b = 65535;
  EXPECT_EQ(widest.to_string(),
            "vlan[4095,4095]mpls[1048575]v4 proto255 65535<->65535");

  const auto a = Ipv4Address::from_octets(10, 0, 0, 1);
  const auto b = Ipv4Address::from_octets(10, 0, 0, 2);
  EXPECT_EQ(flow_key_of(parsed_tcp(a, b, 1, 2, 77)).to_string(),
            "vlan[77]mpls[]v4 proto6 1<->2");
}

TEST(AbstractFrame, CapturesStackAndMetadata) {
  FrameBuilder b;
  b.ethernet(MacAddress::from_id(1), MacAddress::from_id(2))
      .vlan(5)
      .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
            Ipv4Address::from_octets(10, 0, 0, 2))
      .tcp(1, 2, net::tcp_flags::kRst)
      .pad_to(999);
  net::FrameStore frame;
  b.build_into(frame, 123456);
  const AcapRecord rec = abstract_frame(parse_view(frame.view(0)));
  EXPECT_EQ(rec.wire_length, 999u);
  EXPECT_EQ(rec.timestamp, 123456u);
  EXPECT_EQ(rec.tcp_flags, net::tcp_flags::kRst);
  EXPECT_TRUE(rec.has(net::Protocol::kVlan));
  EXPECT_EQ(rec.header_depth(), 4u);
}

TEST(AbstractFrame, NonTcpHasZeroFlags) {
  FrameBuilder b;
  b.ethernet(MacAddress::from_id(1), MacAddress::from_id(2))
      .ipv4(Ipv4Address::from_octets(10, 0, 0, 1),
            Ipv4Address::from_octets(10, 0, 0, 2))
      .udp(1, 2)
      .payload(5);
  const AcapRecord rec = abstract_frame(parse_built(b));
  EXPECT_EQ(rec.tcp_flags, 0);
  EXPECT_EQ(rec.flow.l4_proto, net::kIpProtoUdp);
}

TEST(FlowKey, OrderAgreesWithVectorOrder) {
  // FlowKey::operator< orders flow_aggregate.csv ties and the flows an
  // epoch's sketch is built from; it must be the lexicographic order the
  // vector-keyed FlowKey had, tags first.
  const std::vector<std::vector<std::uint16_t>> vlans{
      {}, {1}, {1, 2}, {1, 2, 3, 4, 5}, {2}, {1, 2, 3, 4, 5, 6}};
  const std::vector<std::vector<std::uint32_t>> mpls{
      {}, {7}, {7, 8, 9, 10, 11}, {8}};
  struct Key {
    FlowKey key;
    std::vector<std::uint16_t> vlan;
    std::vector<std::uint32_t> mpls;
    std::uint16_t port = 0;
  };
  std::vector<Key> keys;
  for (const auto& v : vlans) {
    for (const auto& m : mpls) {
      for (std::uint16_t port : {80, 443}) {
        Key k{{}, v, m, port};
        for (auto x : v) k.key.vlan_ids.push_back(x);
        for (auto x : m) k.key.mpls_labels.push_back(x);
        k.key.port_a = port;
        keys.push_back(std::move(k));
      }
    }
  }
  for (const Key& a : keys) {
    for (const Key& b : keys) {
      const bool expected = std::tie(a.vlan, a.mpls, a.port) <
                            std::tie(b.vlan, b.mpls, b.port);
      ASSERT_EQ(a.key < b.key, expected);
      ASSERT_EQ(a.key == b.key, a.vlan == b.vlan && a.mpls == b.mpls &&
                                    a.port == b.port);
    }
  }
}

TEST(ProtocolStackHash, EqualStacksHashEqual) {
  using net::Protocol;
  const ProtocolStackHash hash;
  const ProtocolStack short_stack{Protocol::kEthernet, Protocol::kIpv4,
                                  Protocol::kTcp};
  // The same three protocols held in a heap block: a spilled stack that
  // was assigned a short one keeps its block.
  ProtocolStack reused;
  for (std::size_t i = 0; i < 3 * net::kInlineLayers; ++i) {
    reused.push_back(Protocol::kMpls);
  }
  ASSERT_TRUE(reused.spilled());
  reused = short_stack;
  ASSERT_TRUE(reused.spilled());
  EXPECT_EQ(reused, short_stack);
  EXPECT_EQ(hash(reused), hash(short_stack));

  ProtocolStack deep;
  for (std::size_t i = 0; i < 3 * net::kInlineLayers; ++i) {
    deep.push_back(i % 2 ? Protocol::kVlan : Protocol::kMpls);
  }
  const ProtocolStack copy = deep;
  ProtocolStack source = deep;
  const ProtocolStack moved = std::move(source);
  EXPECT_EQ(hash(copy), hash(deep));
  EXPECT_EQ(hash(moved), hash(deep));
  EXPECT_EQ(hash(ProtocolStack{}), hash(ProtocolStack{}));
}

}  // namespace
}  // namespace patchwork::analysis
