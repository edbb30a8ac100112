// Seeded mutation harness for the pcap -> Digest boundary.
//
// Golden pcaps of generated traffic are damaged four ways: bit flips,
// truncation, corrupted record lengths, and a splice that repeats one
// header segment of a record until the record passes 64 KB. Each result
// goes through pcap::PcapReader and analysis::digest(). Built with the
// asan preset, a crash or a UB report fails the case; in every build, each
// record digest() produced must be exactly what the dissector makes of the
// same record bytes. Every draw comes from a seeded util::Rng, so a failure
// replays exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/digest.hpp"
#include "net/parser.hpp"
#include "pcap/pcap.hpp"
#include "testing/fixtures.hpp"
#include "traffic/flowgen.hpp"
#include "traffic/workload.hpp"
#include "util/byte_io.hpp"
#include "util/rng.hpp"

namespace patchwork::analysis {
namespace {

using Bytes = std::vector<std::uint8_t>;
using pcap::kGlobalHeaderSize;
using pcap::kRecordHeaderSize;

/// Offsets of a record header's captured and original length fields.
constexpr std::size_t kInclLen = 8;
constexpr std::size_t kOrigLen = 12;

/// The splice grows one record past this many bytes.
constexpr std::size_t kSpliceBytes = 64 * 1024;

void store_le32(Bytes& bytes, std::size_t off, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Data and ACK frames of flows drawn from four generated site profiles.
Bytes golden_pcap(std::uint64_t seed, std::uint32_t snaplen) {
  util::Rng rng(seed);
  const auto profiles = traffic::make_site_profiles(rng, 4);
  pcap::PcapWriter writer(snaplen);
  for (std::size_t i = 0; i < 120; ++i) {
    const traffic::FlowSpec flow =
        traffic::draw_flow(rng, profiles[i % profiles.size()]);
    const util::Nanos t = static_cast<util::Nanos>(i) * 1000;
    patchwork::testing::write_frame(writer,
                                    traffic::make_data_frame(flow, t));
    if (traffic::app_is_tcp(flow.app)) {
      patchwork::testing::write_frame(writer,
                                      traffic::make_ack_frame(flow, t + 1));
    }
  }
  return writer.take_buffer();
}

/// Offset of each record header of an undamaged pcap.
std::vector<std::size_t> record_offsets(const Bytes& pcap) {
  std::vector<std::size_t> out;
  std::size_t off = kGlobalHeaderSize;
  while (off + kRecordHeaderSize <= pcap.size()) {
    out.push_back(off);
    off += kRecordHeaderSize + util::get_le32(pcap, off + kInclLen);
  }
  return out;
}

void flip_bits(Bytes& pcap, util::Rng& rng) {
  const std::uint64_t flips = rng.uniform_u64(1, 16);
  for (std::uint64_t i = 0; i < flips; ++i) {
    const std::uint64_t bit = rng.uniform_u64(0, pcap.size() * 8 - 1);
    pcap[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

void truncate(Bytes& pcap, util::Rng& rng) {
  pcap.resize(rng.uniform_u64(0, pcap.size() - 1));
}

/// Overwrite one record's captured or original length: nudged up or
/// down, zeroed, or replaced by any 32-bit value.
void corrupt_length(Bytes& pcap, util::Rng& rng) {
  const std::vector<std::size_t> records = record_offsets(pcap);
  const std::size_t rec = records[rng.uniform_u64(0, records.size() - 1)];
  const std::size_t field = rec + (rng.chance(0.5) ? kInclLen : kOrigLen);
  const std::uint32_t old = util::get_le32(pcap, field);
  const auto delta = static_cast<std::uint32_t>(rng.uniform_u64(1, 64));
  std::uint32_t value = 0;
  switch (rng.uniform_u64(0, 3)) {
    case 0: value = old + delta; break;
    case 1: value = old - std::min(old, delta); break;
    case 2: value = 0; break;
    default: value = static_cast<std::uint32_t>(rng.bits()); break;
  }
  store_le32(pcap, field, value);
}

/// Repeat one header segment of one record until the record passes
/// kSpliceBytes, growing both of its lengths to match. A segment runs from
/// a header to the next header of the same protocol (one MPLS label of a
/// stack, a pseudowire or VXLAN level), so the copies chain and the
/// dissector walks every one. Returns false if no record has one.
bool splice_deep(Bytes& pcap, util::Rng& rng) {
  struct Segment {
    std::size_t record = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<Segment> segments;
  for (std::size_t rec : record_offsets(pcap)) {
    const std::span<const std::uint8_t> body(
        pcap.data() + rec + kRecordHeaderSize,
        util::get_le32(pcap, rec + kInclLen));
    const net::ParsedFrame parsed =
        net::parse_bytes(body, util::get_le32(pcap, rec + kOrigLen), 0);
    const auto& layers = parsed.layers;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      for (std::size_t j = i + 1; j < layers.size(); ++j) {
        if (layers[j].protocol == layers[i].protocol) {
          segments.push_back({rec, layers[i].offset, layers[j].offset});
          break;
        }
      }
    }
  }
  if (segments.empty()) return false;
  const Segment s = segments[rng.uniform_u64(0, segments.size() - 1)];
  const std::size_t body = s.record + kRecordHeaderSize;
  const std::uint32_t incl = util::get_le32(pcap, s.record + kInclLen);
  const std::size_t len = s.end - s.begin;
  const std::size_t copies = (kSpliceBytes - incl) / len + 1;
  const auto at = [&](std::size_t off) {
    return pcap.begin() + static_cast<std::ptrdiff_t>(body + off);
  };
  const Bytes segment(at(s.begin), at(s.end));
  Bytes repeated;
  for (std::size_t c = 0; c < copies; ++c) {
    repeated.insert(repeated.end(), segment.begin(), segment.end());
  }
  pcap.insert(at(s.begin), repeated.begin(), repeated.end());
  const auto grown = static_cast<std::uint32_t>(repeated.size());
  store_le32(pcap, s.record + kInclLen, incl + grown);
  store_le32(pcap, s.record + kOrigLen,
             util::get_le32(pcap, s.record + kOrigLen) + grown);
  return true;
}

/// Digest `pcap` and check every record against a fresh reader and the
/// dissector. Returns the deepest header stack digested.
std::size_t check_digest(const Bytes& pcap) {
  RawCapture capture;
  capture.site = "S1";
  capture.pcap = pcap;
  DigestStats stats;
  const std::vector<AcapRecord> records =
      patchwork::testing::digest_records(capture, &stats);
  EXPECT_EQ(stats.frames, records.size());

  auto reader = pcap::PcapReader::open(pcap);
  if (!reader) {
    EXPECT_TRUE(records.empty());
    EXPECT_EQ(stats.bad_records, 1u);
    return 0;
  }
  std::size_t deepest = 0;
  for (const AcapRecord& rec : records) {
    const auto view = reader->next_view();
    if (!view) {
      ADD_FAILURE() << "digest produced a record the reader does not have";
      return deepest;
    }
    const net::ParsedFrame parsed =
        net::parse_bytes(view->bytes, view->wire_length, view->timestamp);
    EXPECT_TRUE(std::ranges::equal(rec.stack, parsed.layers, {}, {},
                                   &net::LayerInfo::protocol));
    EXPECT_EQ(rec.wire_length, view->wire_length);
    EXPECT_EQ(rec.captured_length, view->bytes.size());
    EXPECT_EQ(rec.flow.vlan_ids.size(),
              std::ranges::count(rec.stack, net::Protocol::kVlan));
    EXPECT_EQ(rec.flow.mpls_labels.size(),
              std::ranges::count(rec.stack, net::Protocol::kMpls));
    EXPECT_TRUE(std::ranges::equal(rec.flow.vlan_ids, parsed.vlan_ids));
    EXPECT_TRUE(std::ranges::equal(rec.flow.mpls_labels, parsed.mpls_labels));
    deepest = std::max(deepest, rec.stack.size());
  }
  EXPECT_FALSE(reader->next_view().has_value());
  EXPECT_EQ(stats.bad_records, reader->bad_records());
  return deepest;
}

class DigestMutation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DigestMutation, DamagedCapturesDigestLikeTheDissector) {
  util::Rng rng(GetParam());
  std::size_t deep_records = 0;
  for (std::uint32_t snaplen : {200u, 65535u}) {
    const Bytes golden = golden_pcap(GetParam(), snaplen);
    ASSERT_GT(record_offsets(golden).size(), 100u);
    EXPECT_GT(check_digest(golden), 0u);
    for (int trial = 0; trial < 400; ++trial) {
      Bytes pcap = golden;
      switch (trial % 4) {
        case 0: flip_bits(pcap, rng); break;
        case 1: truncate(pcap, rng); break;
        case 2: corrupt_length(pcap, rng); break;
        default: ASSERT_TRUE(splice_deep(pcap, rng)); break;
      }
      // Some damage lands on top of a splice or a corrupted length.
      if (trial % 4 >= 2 && rng.chance(0.25)) flip_bits(pcap, rng);
      if (check_digest(pcap) > 1000) ++deep_records;
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << GetParam() << " snaplen " << snaplen
               << " trial " << trial;
      }
    }
  }
  // The splices did reach stacks thousands of headers deep.
  EXPECT_GT(deep_records, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DigestMutation,
                         ::testing::Values(1ull, 42ull, 777ull, 31337ull));

}  // namespace
}  // namespace patchwork::analysis
