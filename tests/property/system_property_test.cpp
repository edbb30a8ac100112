// Cross-module property tests: pcap round-trips, flow-key symmetry,
// filter algebra, anonymizer determinism, and allocator conservation —
// each swept over several RNG seeds.
#include <gtest/gtest.h>

#include "analysis/acap.hpp"
#include "analysis/digest.hpp"
#include "capture/anonymize.hpp"
#include "capture/filter.hpp"
#include "pcap/pcap.hpp"
#include "testbed/allocator.hpp"
#include "testbed/federation.hpp"
#include "testing/fixtures.hpp"
#include "traffic/flowgen.hpp"
#include "util/rng.hpp"

namespace patchwork {
namespace {

class SystemProperty : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<net::Frame> random_frames(util::Rng& rng, std::size_t n) {
  const auto profiles = traffic::make_site_profiles(rng, 3);
  std::vector<net::Frame> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& profile = profiles[i % profiles.size()];
    traffic::FlowSpec flow = traffic::draw_flow(rng, profile);
    net::Frame f = traffic::make_data_frame(
        flow, rng.uniform_u64(0, 3600 * util::kSecond));
    out.push_back(std::move(f));
  }
  return out;
}

TEST_P(SystemProperty, PcapRoundTripIsLossless) {
  util::Rng rng(GetParam());
  const auto frames = random_frames(rng, 100);
  pcap::PcapWriter writer(65535, pcap::TimestampResolution::kNano);
  for (const net::Frame& f : frames) testing::write_frame(writer, f);
  auto reader = pcap::PcapReader::open(writer.take_buffer());
  ASSERT_TRUE(reader.has_value());
  for (const net::Frame& expected : frames) {
    const auto got = reader->next_view();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->wire_length, expected.wire_length());
    EXPECT_EQ(got->timestamp, expected.timestamp());
    ASSERT_EQ(got->bytes.size(), expected.captured_length());
    EXPECT_TRUE(std::equal(got->bytes.begin(), got->bytes.end(),
                           expected.bytes().begin()));
  }
  EXPECT_FALSE(reader->next_view().has_value());
  EXPECT_EQ(reader->bad_records(), 0u);
}

TEST_P(SystemProperty, FlowKeyIsDirectionSymmetric) {
  util::Rng rng(GetParam());
  const auto profiles = traffic::make_site_profiles(rng, 3);
  for (int i = 0; i < 100; ++i) {
    traffic::FlowSpec flow = traffic::draw_flow(rng, profiles[0]);
    if (!traffic::app_is_tcp(flow.app) || flow.ipv6) continue;
    const auto fwd =
        analysis::flow_key_of(net::parse_frame(traffic::make_data_frame(flow, 0)));
    const auto rev =
        analysis::flow_key_of(net::parse_frame(traffic::make_ack_frame(flow, 0)));
    EXPECT_EQ(fwd, rev);
    EXPECT_EQ(analysis::FlowKeyHash{}(fwd), analysis::FlowKeyHash{}(rev));
  }
}

TEST_P(SystemProperty, FilterDeMorgan) {
  util::Rng rng(GetParam());
  auto get = [](const char* text) {
    auto r = capture::Filter::compile(text);
    EXPECT_TRUE(std::holds_alternative<capture::Filter>(r)) << text;
    return std::get<capture::Filter>(r);
  };
  const capture::Filter lhs = get("not (tcp or jumbo)");
  const capture::Filter rhs = get("not tcp and not jumbo");
  const capture::Filter lhs2 = get("not (vlan and ip6)");
  const capture::Filter rhs2 = get("not vlan or not ip6");
  for (const net::Frame& f : random_frames(rng, 120)) {
    const net::ParsedFrame parsed = net::parse_frame(f);
    EXPECT_EQ(lhs.matches(parsed), rhs.matches(parsed));
    EXPECT_EQ(lhs2.matches(parsed), rhs2.matches(parsed));
  }
}

TEST_P(SystemProperty, FilterComplementPartitionsTraffic) {
  util::Rng rng(GetParam());
  auto tcp = std::get<capture::Filter>(capture::Filter::compile("tcp"));
  auto not_tcp =
      std::get<capture::Filter>(capture::Filter::compile("not tcp"));
  for (const net::Frame& f : random_frames(rng, 120)) {
    const net::ParsedFrame parsed = net::parse_frame(f);
    EXPECT_NE(tcp.matches(parsed), not_tcp.matches(parsed));
  }
}

TEST_P(SystemProperty, AnonymizerIsDeterministicAndStructurePreserving) {
  util::Rng rng(GetParam());
  const capture::Anonymizer anon(0x5eed);
  for (const net::Frame& f : random_frames(rng, 80)) {
    const net::Frame a = testing::scrub_copy(anon, f);
    const net::Frame b = testing::scrub_copy(anon, f);
    EXPECT_TRUE(std::equal(a.bytes().begin(), a.bytes().end(),
                           b.bytes().begin()));
    // Structure (the abstract header stack) is invariant under scrubbing.
    EXPECT_EQ(net::parse_frame(a).stack_string(),
              net::parse_frame(f).stack_string());
    EXPECT_EQ(a.wire_length(), f.wire_length());
  }
}

TEST_P(SystemProperty, AllocatorConservesResources) {
  util::Rng rng(GetParam());
  testbed::Federation fed = testbed::make_fabric_like_federation(rng);
  testbed::Site& site = fed.site(testbed::SiteId{0});
  testbed::Allocator::Tuning tuning;
  tuning.backend_failure_rate = 0.1;
  testbed::Allocator alloc(site, rng, tuning);

  const auto nics_start =
      site.count_available_nics(testbed::NicKind::kDedicatedConnectX);
  const auto storage_start = site.total_free_storage();

  std::vector<testbed::SliceGrant> held;
  for (int op = 0; op < 200; ++op) {
    if (!held.empty() && rng.chance(0.45)) {
      const std::size_t idx = rng.uniform_u64(0, held.size() - 1);
      alloc.release(held[idx]);
      held.erase(held.begin() + static_cast<long>(idx));
    } else {
      testbed::SliceRequest req;
      req.site = testbed::SiteId{0};
      req.vms.assign(rng.uniform_u64(1, 3), testbed::VmRequest{});
      auto result = alloc.allocate(req);
      if (result.ok()) held.push_back(std::move(*result.grant));
    }
    // Invariants hold at every step: nothing is double-allocated and free
    // counts never exceed the initial inventory.
    EXPECT_LE(site.count_available_nics(testbed::NicKind::kDedicatedConnectX),
              nics_start);
    EXPECT_LE(site.total_free_storage(), storage_start);
    for (const testbed::WorkerNode& w : site.workers()) {
      EXPECT_LE(w.cores_free, w.cores_total);
      EXPECT_LE(w.ram_free, w.ram_total);
      EXPECT_LE(w.storage_free, w.storage_total);
    }
  }
  for (const auto& grant : held) alloc.release(grant);
  EXPECT_EQ(site.count_available_nics(testbed::NicKind::kDedicatedConnectX),
            nics_start);
  EXPECT_EQ(site.total_free_storage(), storage_start);
}

TEST_P(SystemProperty, DigestCountsMatchCaptureCounts) {
  util::Rng rng(GetParam());
  const auto frames = random_frames(rng, 150);
  pcap::PcapWriter writer(200);
  for (const net::Frame& f : frames) testing::write_frame(writer, f);
  analysis::RawCapture raw;
  raw.site = "S0";
  raw.pcap = writer.take_buffer();
  analysis::DigestStats stats;
  const auto records = testing::digest_records(raw, &stats);
  EXPECT_EQ(records.size(), frames.size());
  EXPECT_EQ(stats.frames, frames.size());
  std::uint64_t wire = 0, wire_expected = 0;
  for (const auto& r : records) wire += r.wire_length;
  for (const auto& f : frames) wire_expected += f.wire_length();
  EXPECT_EQ(wire, wire_expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystemProperty,
                         ::testing::Values(3ull, 99ull, 2024ull, 0xc0ffeeull,
                                           918273645ull));

}  // namespace
}  // namespace patchwork
