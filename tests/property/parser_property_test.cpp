// Property tests for the dissector: it must never misbehave on arbitrary
// bytes (captures contain whatever crossed the wire) and must degrade
// gracefully — never inventing structure — under any truncation.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/parser.hpp"
#include "testing/fixtures.hpp"
#include "traffic/flowgen.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"

namespace patchwork::net {
namespace {

using patchwork::testing::parse_built;

/// Frame 0 of `flow`'s data unit, described as render_unit describes it.
FrameBuilder data_frame(const traffic::FlowSpec& flow) {
  FrameBuilder b;
  traffic::describe_frame(b, flow, /*ack=*/false, 0);
  return b;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, ArbitraryBytesNeverBreakInvariants) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t len = rng.uniform_u64(0, 512);
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.bits());
    const std::size_t wire = len + rng.uniform_u64(0, 64);
    const ParsedFrame parsed = parse_bytes(bytes, wire, 0);

    // Layers lie within the captured bytes, in order, without overlap.
    std::size_t cursor = 0;
    for (const LayerInfo& layer : parsed.layers) {
      EXPECT_GE(layer.offset, cursor);
      EXPECT_LE(layer.offset + layer.length, bytes.size());
      cursor = layer.offset + layer.length;
    }
    EXPECT_LE(parsed.header_depth(), parsed.layers.size());
    EXPECT_EQ(parsed.captured_length, bytes.size());
    EXPECT_EQ(parsed.wire_length, wire);
  }
}

TEST_P(ParserFuzz, GeneratedTrafficNeverMalformed) {
  util::Rng rng(GetParam());
  const auto profiles = traffic::make_site_profiles(rng, 4);
  for (int trial = 0; trial < 150; ++trial) {
    const auto& profile = profiles[trial % profiles.size()];
    const traffic::FlowSpec flow = traffic::draw_flow(rng, profile);
    const ParsedFrame parsed = parse_built(data_frame(flow));
    EXPECT_FALSE(parsed.has(Protocol::kMalformed)) << parsed.stack_string();
    EXPECT_FALSE(parsed.has(Protocol::kTruncated)) << parsed.stack_string();
    EXPECT_GE(parsed.header_depth(), 2u);
  }
}

TEST_P(ParserFuzz, TruncationYieldsPrefixOfFullParse) {
  util::Rng rng(GetParam() ^ 0xabcdef);
  const auto profiles = traffic::make_site_profiles(rng, 4);
  for (int trial = 0; trial < 60; ++trial) {
    const auto& profile = profiles[trial % profiles.size()];
    const traffic::FlowSpec flow = traffic::draw_flow(rng, profile);
    const FrameBuilder full = data_frame(flow);
    const ParsedFrame reference = parse_built(full);
    for (std::size_t snaplen : {32ul, 64ul, 96ul, 200ul}) {
      const ParsedFrame cut = parse_built(full, snaplen);
      // Every fully-present layer of the truncated parse must agree with
      // the reference parse at the same position.
      for (std::size_t i = 0; i + 1 < cut.layers.size(); ++i) {
        ASSERT_LT(i, reference.layers.size());
        EXPECT_EQ(cut.layers[i].protocol, reference.layers[i].protocol)
            << "snaplen " << snaplen << ": " << cut.stack_string() << " vs "
            << reference.stack_string();
        EXPECT_EQ(cut.layers[i].offset, reference.layers[i].offset);
      }
      // The dissector never labels snaplen damage as malformed.
      EXPECT_FALSE(cut.has(Protocol::kMalformed))
          << "snaplen " << snaplen << ": " << cut.stack_string();
    }
  }
}

TEST_P(ParserFuzz, TagExtractionMatchesFlowSpec) {
  util::Rng rng(GetParam() ^ 0x1234);
  const auto profiles = traffic::make_site_profiles(rng, 4);
  for (int trial = 0; trial < 150; ++trial) {
    const auto& profile = profiles[trial % profiles.size()];
    const traffic::FlowSpec flow = traffic::draw_flow(rng, profile);
    const ParsedFrame parsed = parse_built(data_frame(flow));
    if (flow.app == traffic::FlowApp::kArp) continue;  // VLAN-only path.
    EXPECT_TRUE(std::ranges::equal(parsed.mpls_labels, flow.mpls_labels));
    if (flow.vlan_id) {
      ASSERT_FALSE(parsed.vlan_ids.empty());
      EXPECT_EQ(parsed.vlan_ids.front(), *flow.vlan_id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(1ull, 42ull, 777ull, 31337ull,
                                           0xdeadbeefull));

}  // namespace
}  // namespace patchwork::net
