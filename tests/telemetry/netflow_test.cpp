#include "telemetry/netflow.hpp"

#include <gtest/gtest.h>

#include "net/frame_builder.hpp"
#include "net/parser.hpp"
#include "testing/fixtures.hpp"

namespace patchwork::telemetry {
namespace {

using patchwork::testing::parse_built;

net::ParsedFrame tcp_frame(std::uint8_t host_a, std::uint8_t host_b,
                           std::uint16_t sport, std::uint16_t dport,
                           std::size_t size = 256,
                           std::uint8_t flags = net::tcp_flags::kAck) {
  net::FrameBuilder b;
  b.ethernet(net::MacAddress::from_id(1), net::MacAddress::from_id(2))
      .vlan(100)
      .ipv4(net::Ipv4Address::from_octets(10, 0, 0, host_a),
            net::Ipv4Address::from_octets(10, 0, 0, host_b))
      .tcp(sport, dport, flags)
      .payload(1)
      .pad_to(size);
  return parse_built(b);
}

TEST(NetflowCache, AggregatesPacketsIntoFlows) {
  NetflowCache cache;
  cache.observe(tcp_frame(1, 2, 1000, 443, 500), 0);
  cache.observe(tcp_frame(1, 2, 1000, 443, 700), util::kSecond);
  cache.observe(tcp_frame(3, 4, 2000, 22, 300), util::kSecond);
  EXPECT_EQ(cache.active_flows(), 2u);
  cache.flush(2 * util::kSecond);
  auto records = cache.drain();
  ASSERT_EQ(records.size(), 2u);
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.octets > b.octets; });
  EXPECT_EQ(records[0].packets, 2u);
  EXPECT_EQ(records[0].octets, 1200u);
  EXPECT_EQ(records[0].src_port, 1000);
  EXPECT_EQ(records[0].dst_port, 443);
  EXPECT_EQ(records[0].protocol, net::kIpProtoTcp);
}

TEST(NetflowCache, FlowsAreUnidirectional) {
  // Unlike Patchwork's canonical bidirectional keys, v5 splits the two
  // directions — one of its documented coarseness problems.
  NetflowCache cache;
  cache.observe(tcp_frame(1, 2, 1000, 443), 0);
  cache.observe(tcp_frame(2, 1, 443, 1000), 0);
  EXPECT_EQ(cache.active_flows(), 2u);
}

TEST(NetflowCache, TagsAreInvisible) {
  // Two slices, same 5-tuple, different VLAN: v5 merges them.
  net::FrameBuilder b1, b2;
  b1.ethernet(net::MacAddress::from_id(1), net::MacAddress::from_id(2))
      .vlan(100)
      .ipv4(net::Ipv4Address::from_octets(10, 0, 0, 1),
            net::Ipv4Address::from_octets(10, 0, 0, 2))
      .tcp(1000, 443)
      .payload(8);
  b2.ethernet(net::MacAddress::from_id(1), net::MacAddress::from_id(2))
      .vlan(200)
      .ipv4(net::Ipv4Address::from_octets(10, 0, 0, 1),
            net::Ipv4Address::from_octets(10, 0, 0, 2))
      .tcp(1000, 443)
      .payload(8);
  NetflowCache cache;
  cache.observe(parse_built(b1), 0);
  cache.observe(parse_built(b2), 0);
  EXPECT_EQ(cache.active_flows(), 1u);
}

TEST(NetflowCache, IdleTimeoutExpires) {
  NetflowCache::Config config;
  config.idle_timeout = 15 * util::kSecond;
  NetflowCache cache(config);
  cache.observe(tcp_frame(1, 2, 1, 2), 0);
  cache.sweep(10 * util::kSecond);
  EXPECT_EQ(cache.active_flows(), 1u);
  cache.sweep(16 * util::kSecond);
  EXPECT_EQ(cache.active_flows(), 0u);
  EXPECT_EQ(cache.drain().size(), 1u);
}

TEST(NetflowCache, ActiveTimeoutExpiresLongFlows) {
  NetflowCache::Config config;
  config.active_timeout = 60 * util::kSecond;
  config.idle_timeout = 15 * util::kSecond;
  NetflowCache cache(config);
  // Keep the flow busy past the active timeout.
  for (int s = 0; s <= 70; s += 5) {
    cache.observe(tcp_frame(1, 2, 1, 2),
                  static_cast<util::Nanos>(s) * util::kSecond);
  }
  cache.sweep(70 * util::kSecond);
  EXPECT_EQ(cache.active_flows(), 0u);  // Cut despite being active.
}

TEST(NetflowCache, OctetCounterCrossing32BitsEmitsAndResets) {
  // Regression: octets accumulated in a uint32, so a long-lived flow
  // silently wrapped before the active timeout exported it. The cache now
  // accumulates in 64 bits and exports-and-restarts the flow just before
  // the v5 wire field would overflow.
  NetflowCache::Config config;
  config.active_timeout = util::kHour;  // Never fires in this test.
  config.idle_timeout = util::kHour;
  NetflowCache cache(config);
  // One parsed frame, re-observed with an inflated wire length so the flow
  // crosses 2^32 octets in a handful of packets: 5 x 1 GiB.
  net::ParsedFrame frame = tcp_frame(1, 2, 1000, 443);
  frame.wire_length = 1ull << 30;
  for (int i = 0; i < 5; ++i) {
    cache.observe(frame, static_cast<util::Nanos>(i) * util::kSecond);
  }
  // The 4th packet would land on 4 GiB = 2^32, one past the wire field's
  // max, so the first three packets were exported as one record and the
  // flow restarted; packets 4 and 5 accumulate in the successor flow.
  auto exported = cache.drain();
  ASSERT_EQ(exported.size(), 1u);
  EXPECT_EQ(exported[0].packets, 3u);
  EXPECT_EQ(exported[0].octets, 3u * (1u << 30));
  EXPECT_EQ(cache.active_flows(), 1u);
  cache.flush(10 * util::kSecond);
  const auto rest = cache.drain();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].packets, 2u);
  EXPECT_EQ(rest[0].octets, 2u << 30);
  // Totals preserved across the reset: 5 GiB in all.
  EXPECT_EQ(static_cast<std::uint64_t>(exported[0].octets) + rest[0].octets,
            5ull << 30);
}

TEST(NetflowCache, IgnoresNonIpv4) {
  net::FrameBuilder arp;
  arp.ethernet(net::MacAddress::from_id(1), net::MacAddress::from_id(2))
      .arp(net::MacAddress::from_id(1),
           net::Ipv4Address::from_octets(10, 0, 0, 1),
           net::Ipv4Address::from_octets(10, 0, 0, 2))
      .pad_to(64);
  NetflowCache cache;
  EXPECT_FALSE(cache.observe(parse_built(arp), 0));
  EXPECT_EQ(cache.ignored_frames(), 1u);
  EXPECT_EQ(cache.active_flows(), 0u);
}

TEST(NetflowCache, TcpFlagsAccumulate) {
  NetflowCache cache;
  cache.observe(tcp_frame(1, 2, 1, 2, 256, net::tcp_flags::kSyn), 0);
  cache.observe(tcp_frame(1, 2, 1, 2, 256,
                          net::tcp_flags::kAck | net::tcp_flags::kFin),
                util::kSecond);
  cache.flush(util::kSecond);
  const auto records = cache.drain();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].tcp_flags, net::tcp_flags::kSyn |
                                      net::tcp_flags::kAck |
                                      net::tcp_flags::kFin);
}

TEST(NetflowCache, CapacityEvictionPicksOldestLastSeen) {
  NetflowCache::Config config;
  config.max_flows = 2;
  NetflowCache cache(config);
  cache.observe(tcp_frame(1, 2, 1000, 443), 1 * util::kSecond);
  cache.observe(tcp_frame(3, 4, 2000, 443), 2 * util::kSecond);
  EXPECT_EQ(cache.active_flows(), 2u);
  // A third flow displaces the stalest one (host 1, last seen at t=1).
  cache.observe(tcp_frame(5, 6, 3000, 443), 3 * util::kSecond);
  EXPECT_EQ(cache.active_flows(), 2u);
  EXPECT_EQ(cache.evictions(NetflowCache::EvictCause::kCapacity), 1u);
  const auto records = cache.drain();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].src_addr, 0x0a000001u);  // 10.0.0.1's flow.
}

TEST(NetflowCache, CapacityEvictionTieBreaksOnSmallestKey) {
  NetflowCache::Config config;
  config.max_flows = 2;
  NetflowCache cache(config);
  // Equal last-seen: the deterministic victim is the smaller key, never
  // an iteration-order accident.
  cache.observe(tcp_frame(2, 3, 1000, 443), util::kSecond);
  cache.observe(tcp_frame(1, 2, 1000, 443), util::kSecond);
  cache.observe(tcp_frame(9, 9, 9000, 443), 2 * util::kSecond);
  const auto records = cache.drain();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].src_addr, 0x0a000001u)
      << "victim must be the smallest key among equally stale flows";
}

TEST(NetflowCache, EvictionCountersAttributeCause) {
  NetflowCache::Config config;
  config.active_timeout = 60 * util::kSecond;
  config.idle_timeout = 15 * util::kSecond;
  NetflowCache cache(config);
  // Flow A goes quiet after t=0: its idle deadline (15 s) passes long
  // before its active deadline (60 s) -> idle cause.
  cache.observe(tcp_frame(1, 2, 1000, 443), 0);
  // Flow B stays busy to t=60: at sweep time it is not idle, only old ->
  // active cause.
  for (int s = 0; s <= 60; s += 5) {
    cache.observe(tcp_frame(3, 4, 2000, 443),
                  static_cast<util::Nanos>(s) * util::kSecond);
  }
  cache.sweep(62 * util::kSecond);
  EXPECT_EQ(cache.active_flows(), 0u);
  EXPECT_EQ(cache.evictions(NetflowCache::EvictCause::kIdle), 1u);
  EXPECT_EQ(cache.evictions(NetflowCache::EvictCause::kActive), 1u);
  EXPECT_EQ(cache.evictions(NetflowCache::EvictCause::kCapacity), 0u);
  // End-of-metering flush is its own cause.
  cache.observe(tcp_frame(5, 6, 3000, 443), 63 * util::kSecond);
  cache.flush(64 * util::kSecond);
  EXPECT_EQ(cache.evictions(NetflowCache::EvictCause::kFlush), 1u);
}

TEST(NetflowCache, UnboundedByDefaultNeverCapacityEvicts) {
  NetflowCache cache;  // max_flows = 0: the legacy unbounded behaviour.
  for (int i = 0; i < 100; ++i) {
    cache.observe(tcp_frame(static_cast<std::uint8_t>(i / 10 + 1),
                            static_cast<std::uint8_t>(i % 10 + 1),
                            static_cast<std::uint16_t>(1000 + i), 443),
                  static_cast<util::Nanos>(i) * util::kMillisecond);
  }
  EXPECT_EQ(cache.active_flows(), 100u);
  EXPECT_EQ(cache.evictions(NetflowCache::EvictCause::kCapacity), 0u);
}

TEST(NetflowCache, EvictionStormDrainsIdenticallyAcrossRuns) {
  // The churn-storm regression: under capacity pressure the victim
  // sequence (and therefore the export stream) must reproduce exactly —
  // same frames in, same records out, run after run.
  auto storm = [] {
    NetflowCache::Config config;
    config.max_flows = 8;
    NetflowCache cache(config);
    // A deterministic churny workload: 40 distinct 5-tuples cycling
    // through an 8-slot cache.
    for (int i = 0; i < 200; ++i) {
      const int k = (i * 7) % 40;
      cache.observe(tcp_frame(static_cast<std::uint8_t>(k / 8 + 1),
                              static_cast<std::uint8_t>(k % 8 + 1),
                              static_cast<std::uint16_t>(5000 + k), 443),
                    static_cast<util::Nanos>(i) * util::kMillisecond);
    }
    cache.flush(util::kSecond);
    return cache.drain();
  };
  const auto a = storm();
  const auto b = storm();
  ASSERT_GT(a.size(), 8u) << "workload did not trigger evictions";
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src_addr, b[i].src_addr) << "record " << i;
    EXPECT_EQ(a[i].src_port, b[i].src_port) << "record " << i;
    EXPECT_EQ(a[i].packets, b[i].packets) << "record " << i;
    EXPECT_EQ(a[i].last_ms, b[i].last_ms) << "record " << i;
  }
}

TEST(NetflowExport, RoundTripsThroughCollector) {
  std::vector<NetflowRecord> records;
  for (int i = 0; i < 3; ++i) {
    NetflowRecord r;
    r.src_addr = 0x0a000001u + static_cast<std::uint32_t>(i);
    r.dst_addr = 0x0a000099;
    r.packets = 10 + static_cast<std::uint32_t>(i);
    r.octets = 1000;
    r.src_port = 4000;
    r.dst_port = 443;
    r.protocol = 6;
    r.tcp_flags = net::tcp_flags::kAck;
    records.push_back(r);
  }
  std::uint32_t sequence = 100;
  const auto datagrams =
      netflow_export(records, 5 * util::kSecond, sequence);
  ASSERT_EQ(datagrams.size(), 1u);
  EXPECT_EQ(sequence, 103u);
  EXPECT_EQ(datagrams[0].size(),
            kNetflowHeaderSize + 3 * kNetflowRecordSize);
  const auto packet = netflow_collect(datagrams[0]);
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ(packet->flow_sequence, 100u);
  EXPECT_EQ(packet->sys_uptime_ms, 5000u);
  ASSERT_EQ(packet->records.size(), 3u);
  EXPECT_EQ(packet->records[1].src_addr, 0x0a000002u);
  EXPECT_EQ(packet->records[1].packets, 11u);
  EXPECT_EQ(packet->records[0].protocol, 6);
}

TEST(NetflowExport, SplitsAtThirtyRecords) {
  std::vector<NetflowRecord> records(65);
  std::uint32_t sequence = 0;
  const auto datagrams = netflow_export(records, 0, sequence);
  ASSERT_EQ(datagrams.size(), 3u);  // 30 + 30 + 5.
  EXPECT_EQ(sequence, 65u);
  const auto last = netflow_collect(datagrams[2]);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->records.size(), 5u);
  EXPECT_EQ(last->flow_sequence, 60u);
}

TEST(NetflowCollect, RejectsMalformedDatagrams) {
  EXPECT_FALSE(netflow_collect({}).has_value());
  std::vector<std::uint8_t> short_packet(10, 0);
  EXPECT_FALSE(netflow_collect(short_packet).has_value());
  // Valid length but wrong version.
  std::vector<NetflowRecord> one(1);
  std::uint32_t seq = 0;
  auto datagrams = netflow_export(one, 0, seq);
  datagrams[0][1] = 9;  // Version 9.
  EXPECT_FALSE(netflow_collect(datagrams[0]).has_value());
  // Count/size mismatch.
  auto again = netflow_export(one, 0, seq);
  again[0].push_back(0);
  EXPECT_FALSE(netflow_collect(again[0]).has_value());
}

}  // namespace
}  // namespace patchwork::telemetry
