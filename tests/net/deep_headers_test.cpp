// Frames whose headers stack tens of thousands deep. A pcap record may
// hold up to 64 KB of anything, and each stacked VLAN tag, MPLS label or
// pseudowire level is another header for the dissector to walk; the walk
// must stay exact, in order, and use constant stack at any depth.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/digest.hpp"
#include "net/headers.hpp"
#include "net/parser.hpp"
#include "testing/fixtures.hpp"
#include "pcap/pcap.hpp"

namespace patchwork::net {
namespace {

/// IEEE local experimental EtherType: the walk stops at it, and since the
/// frame ends there no payload layer follows.
constexpr std::uint16_t kEtherTypeLocal = 0x88b5;

void put_ethernet(Bytes& out, std::uint16_t ethertype) {
  EthernetHeader{MacAddress::from_id(2), MacAddress::from_id(1), ethertype}
      .encode(out);
}

std::uint16_t vid_of(std::size_t i) {
  return static_cast<std::uint16_t>(i & 0x0fff);
}
std::uint32_t label_of(std::size_t i) {
  return static_cast<std::uint32_t>(i & 0xfffff);
}

/// Ethernet, `tags` 802.1Q tags, then `labels` MPLS labels; the frame ends
/// after the last header.
Bytes stacked_frame(std::size_t tags, std::size_t labels) {
  Bytes out;
  const std::uint16_t inner =
      labels > 0 ? kEtherTypeMplsUnicast : kEtherTypeLocal;
  put_ethernet(out, tags > 0 ? kEtherTypeVlan : inner);
  for (std::size_t i = 0; i < tags; ++i) {
    VlanTag tag;
    tag.vid = vid_of(i);
    tag.ethertype = i + 1 < tags ? kEtherTypeVlan : inner;
    tag.encode(out);
  }
  for (std::size_t i = 0; i < labels; ++i) {
    MplsLabel label;
    label.label = label_of(i);
    label.bottom_of_stack = i + 1 == labels;
    label.encode(out);
  }
  return out;
}

/// `levels` nested Ethernet / MPLS / pseudowire levels, then a last
/// Ethernet header.
Bytes pseudowire_frame(std::size_t levels) {
  Bytes out;
  for (std::size_t i = 0; i < levels; ++i) {
    put_ethernet(out, kEtherTypeMplsUnicast);
    MplsLabel label;
    label.label = label_of(i);
    label.bottom_of_stack = true;
    label.encode(out);
    PseudoWireControlWord{static_cast<std::uint16_t>(i)}.encode(out);
  }
  put_ethernet(out, kEtherTypeLocal);
  return out;
}

std::vector<std::uint16_t> vids(std::size_t n) {
  std::vector<std::uint16_t> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(vid_of(i));
  return out;
}

std::vector<std::uint32_t> labels(std::size_t n) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(label_of(i));
  return out;
}

ParsedFrame parse_all(const Bytes& bytes) {
  return parse_bytes(bytes, bytes.size(), 0);
}

TEST(DeepHeaders, SixteenThousandVlanTags) {
  const Bytes bytes = stacked_frame(16000, 0);
  ASSERT_EQ(bytes.size(), 64014u);
  const ParsedFrame parsed = parse_all(bytes);
  ASSERT_EQ(parsed.layers.size(), 16001u);
  EXPECT_EQ(parsed.layers[0].protocol, Protocol::kEthernet);
  for (std::size_t i = 1; i < parsed.layers.size(); ++i) {
    ASSERT_EQ(parsed.layers[i].protocol, Protocol::kVlan) << i;
    ASSERT_EQ(parsed.layers[i].offset, 14 + 4 * (i - 1)) << i;
  }
  EXPECT_TRUE(std::ranges::equal(parsed.vlan_ids, vids(16000)));
  EXPECT_TRUE(parsed.mpls_labels.empty());
}

TEST(DeepHeaders, SixteenThousandMplsLabels) {
  const Bytes bytes = stacked_frame(0, 16000);
  const ParsedFrame parsed = parse_all(bytes);
  ASSERT_EQ(parsed.layers.size(), 16001u);
  EXPECT_EQ(parsed.layers[0].protocol, Protocol::kEthernet);
  for (std::size_t i = 1; i < parsed.layers.size(); ++i) {
    ASSERT_EQ(parsed.layers[i].protocol, Protocol::kMpls) << i;
  }
  EXPECT_TRUE(std::ranges::equal(parsed.mpls_labels, labels(16000)));
  EXPECT_TRUE(parsed.vlan_ids.empty());
}

TEST(DeepHeaders, NestedPseudowireLevels) {
  const Bytes bytes = pseudowire_frame(2900);
  ASSERT_EQ(bytes.size(), 63814u);
  const ParsedFrame parsed = parse_all(bytes);
  ASSERT_EQ(parsed.layers.size(), 3u * 2900 + 1);
  for (std::size_t level = 0; level < 2900; ++level) {
    const std::size_t i = 3 * level;
    ASSERT_EQ(parsed.layers[i].protocol, Protocol::kEthernet) << level;
    ASSERT_EQ(parsed.layers[i].offset, 22 * level) << level;
    ASSERT_EQ(parsed.layers[i + 1].protocol, Protocol::kMpls) << level;
    ASSERT_EQ(parsed.layers[i + 2].protocol, Protocol::kPseudoWire) << level;
  }
  EXPECT_EQ(parsed.layers.back().protocol, Protocol::kEthernet);
  EXPECT_EQ(parsed.layers.back().offset, 22u * 2900);
  EXPECT_TRUE(std::ranges::equal(parsed.mpls_labels, labels(2900)));
  EXPECT_TRUE(parsed.vlan_ids.empty());
}

TEST(DeepHeaders, DigestKeepsEveryTagOfADeepRecord) {
  // 8,000 VLAN tags over 8,000 MPLS labels: every list of the record, and
  // of its flow key, holds far more than it keeps inline.
  const Bytes bytes = stacked_frame(8000, 8000);
  pcap::PcapWriter writer;
  writer.write_record(bytes, bytes.size(), 0);
  analysis::RawCapture capture;
  capture.site = "S1";
  capture.pcap = writer.take_buffer();

  analysis::DigestStats stats;
  const std::vector<analysis::AcapRecord> records =
      patchwork::testing::digest_records(capture, &stats);
  EXPECT_EQ(stats.frames, 1u);
  EXPECT_EQ(stats.bad_records, 0u);
  EXPECT_EQ(stats.truncated_frames, 0u);
  EXPECT_EQ(stats.malformed_frames, 0u);
  ASSERT_EQ(records.size(), 1u);
  const analysis::AcapRecord& rec = records[0];

  std::vector<Protocol> stack{Protocol::kEthernet};
  stack.insert(stack.end(), 8000, Protocol::kVlan);
  stack.insert(stack.end(), 8000, Protocol::kMpls);
  EXPECT_TRUE(std::ranges::equal(rec.stack, stack));
  EXPECT_EQ(rec.wire_length, bytes.size());
  EXPECT_EQ(rec.captured_length, bytes.size());
  EXPECT_TRUE(std::ranges::equal(rec.flow.vlan_ids, vids(8000)));
  EXPECT_TRUE(std::ranges::equal(rec.flow.mpls_labels, labels(8000)));
  EXPECT_EQ(rec.flow.ip_version, 0u);
}

}  // namespace
}  // namespace patchwork::net
