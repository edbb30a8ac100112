#include "capture/filter.hpp"

#include <gtest/gtest.h>

#include "net/frame_builder.hpp"
#include "testing/fixtures.hpp"

namespace patchwork::capture {
namespace {

using patchwork::testing::parse_built;
using net::FrameBuilder;
using net::Ipv4Address;
using net::MacAddress;

const MacAddress kSrc = MacAddress::from_id(1);
const MacAddress kDst = MacAddress::from_id(2);
const Ipv4Address kA = Ipv4Address::from_octets(10, 0, 0, 1);
const Ipv4Address kB = Ipv4Address::from_octets(10, 0, 0, 2);

Filter compile_ok(std::string_view text) {
  auto result = Filter::compile(text);
  EXPECT_TRUE(std::holds_alternative<Filter>(result)) << text;
  return std::get<Filter>(result);
}

net::ParsedFrame tcp_frame(std::uint16_t sport, std::uint16_t dport,
                           std::size_t size = 0) {
  FrameBuilder b;
  b.ethernet(kSrc, kDst).vlan(100).ipv4(kA, kB).tcp(sport, dport).payload(4);
  if (size) b.pad_to(size);
  return parse_built(b);
}

TEST(Filter, EmptyMatchesEverything) {
  Filter f;
  EXPECT_TRUE(f.matches(tcp_frame(1, 2)));
  EXPECT_TRUE(compile_ok("").matches(tcp_frame(1, 2)));
}

TEST(Filter, ProtocolPredicates) {
  EXPECT_TRUE(compile_ok("ip").matches(tcp_frame(1, 2)));
  EXPECT_TRUE(compile_ok("tcp").matches(tcp_frame(1, 2)));
  EXPECT_FALSE(compile_ok("udp").matches(tcp_frame(1, 2)));
  EXPECT_FALSE(compile_ok("ip6").matches(tcp_frame(1, 2)));
  EXPECT_TRUE(compile_ok("vlan").matches(tcp_frame(1, 2)));
}

TEST(Filter, PortPredicates) {
  EXPECT_TRUE(compile_ok("port 443").matches(tcp_frame(50000, 443)));
  EXPECT_TRUE(compile_ok("port 50000").matches(tcp_frame(50000, 443)));
  EXPECT_FALSE(compile_ok("port 22").matches(tcp_frame(50000, 443)));
  EXPECT_TRUE(compile_ok("src port 50000").matches(tcp_frame(50000, 443)));
  EXPECT_FALSE(compile_ok("src port 443").matches(tcp_frame(50000, 443)));
  EXPECT_TRUE(compile_ok("dst port 443").matches(tcp_frame(50000, 443)));
}

TEST(Filter, HostPredicates) {
  EXPECT_TRUE(compile_ok("host 10.0.0.1").matches(tcp_frame(1, 2)));
  EXPECT_TRUE(compile_ok("src host 10.0.0.1").matches(tcp_frame(1, 2)));
  EXPECT_FALSE(compile_ok("dst host 10.0.0.1").matches(tcp_frame(1, 2)));
  EXPECT_FALSE(compile_ok("host 10.9.9.9").matches(tcp_frame(1, 2)));
}

TEST(Filter, VlanAndMplsWithIds) {
  EXPECT_TRUE(compile_ok("vlan 100").matches(tcp_frame(1, 2)));
  EXPECT_FALSE(compile_ok("vlan 101").matches(tcp_frame(1, 2)));
  FrameBuilder b;
  b.ethernet(kSrc, kDst).mpls(16001).ipv4(kA, kB).udp(1, 2);
  const auto parsed = parse_built(b);
  EXPECT_TRUE(compile_ok("mpls").matches(parsed));
  EXPECT_TRUE(compile_ok("mpls 16001").matches(parsed));
  EXPECT_FALSE(compile_ok("mpls 7").matches(parsed));
}

TEST(Filter, SizePredicates) {
  EXPECT_TRUE(compile_ok("greater 1000").matches(tcp_frame(1, 2, 1514)));
  EXPECT_FALSE(compile_ok("greater 2000").matches(tcp_frame(1, 2, 1514)));
  EXPECT_TRUE(compile_ok("less 1514").matches(tcp_frame(1, 2, 1514)));
  EXPECT_TRUE(compile_ok("jumbo").matches(tcp_frame(1, 2, 2000)));
  EXPECT_FALSE(compile_ok("jumbo").matches(tcp_frame(1, 2, 1514)));
}

TEST(Filter, BooleanOperators) {
  const auto f = tcp_frame(50000, 443, 1514);
  EXPECT_TRUE(compile_ok("ip and tcp").matches(f));
  EXPECT_FALSE(compile_ok("ip and udp").matches(f));
  EXPECT_TRUE(compile_ok("udp or tcp").matches(f));
  EXPECT_TRUE(compile_ok("not udp").matches(f));
  EXPECT_FALSE(compile_ok("not tcp").matches(f));
}

TEST(Filter, PrecedenceAndParentheses) {
  const auto f = tcp_frame(50000, 443);
  // "and" binds tighter than "or": this reads (udp and port 9) or tcp.
  EXPECT_TRUE(compile_ok("udp and port 9 or tcp").matches(f));
  EXPECT_FALSE(compile_ok("udp and (port 9 or tcp)").matches(f));
  EXPECT_TRUE(compile_ok("not (udp or icmp)").matches(f));
}

TEST(Filter, PaperStyleExcludeManagementTraffic) {
  // Requirement 1 of Section 1: filtering to exclude unwanted traffic,
  // e.g. the profiler's own SSH management sessions.
  const Filter f = compile_ok("ip and not port 22");
  EXPECT_TRUE(f.matches(tcp_frame(50000, 443)));
  EXPECT_FALSE(f.matches(tcp_frame(50000, 22)));
}

TEST(Filter, CompileErrorsAreReported) {
  EXPECT_TRUE(std::holds_alternative<Filter::CompileError>(
      Filter::compile("port")));
  EXPECT_TRUE(std::holds_alternative<Filter::CompileError>(
      Filter::compile("port abc")));
  EXPECT_TRUE(std::holds_alternative<Filter::CompileError>(
      Filter::compile("host 999.0.0.1")));
  EXPECT_TRUE(std::holds_alternative<Filter::CompileError>(
      Filter::compile("(tcp")));
  EXPECT_TRUE(std::holds_alternative<Filter::CompileError>(
      Filter::compile("tcp tcp")));
  EXPECT_TRUE(std::holds_alternative<Filter::CompileError>(
      Filter::compile("frobnicate")));
  EXPECT_TRUE(std::holds_alternative<Filter::CompileError>(
      Filter::compile("src vlan 3")));
}

TEST(Filter, SourceTextPreserved) {
  EXPECT_EQ(compile_ok("tcp and port 80").source(), "tcp and port 80");
}

TEST(Filter, CopiesShareCompiledProgram) {
  const Filter f = compile_ok("tcp");
  const Filter g = f;  // NOLINT: exercising copy semantics.
  EXPECT_TRUE(g.matches(tcp_frame(1, 2)));
}

}  // namespace
}  // namespace patchwork::capture
