#include "archive/record.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace patchwork::archive {
namespace {

EpochRecord sample_record(std::uint64_t epoch, const std::string& label) {
  EpochRecord r;
  r.first_epoch = r.last_epoch = epoch;
  r.label = label;
  r.start_nanos = epoch * 1000;
  r.duration_nanos = 1000;
  r.offered_bps_sum = 1.5e12;
  r.samples = 4;
  r.frames = 1000 + epoch;
  r.bad_records = 1;
  r.truncated_frames = 2;
  r.malformed_frames = 3;
  r.switch_drops_suspected = 5;
  r.pcap_bytes = 123456;
  r.frame_sizes.edges = {64, 128, 1519};
  r.frame_sizes.counts = {10, 20};
  r.frame_sizes.underflow = 1;
  r.frame_sizes.overflow = 7;
  r.header_occurrence.occurrences = {100, 0, 30};
  r.tcp_control.tcp_frames = 900;
  r.tcp_control.syn = 10;
  r.tcp_control.fin = 9;
  r.tcp_control.rst = 2;
  r.tcp_control.pure_ack = 300;
  r.tagging.frames = 1000;
  r.tagging.vlan_tagged = 950;
  r.tagging.mpls_tagged = 400;
  r.tagging.both_tagged = 390;
  r.tagging.untagged = 40;
  r.flow_snippets = 77;
  r.largest_flow_bytes = 999999;
  SiteEpochLoad site;
  site.site = "SITE" + std::to_string(epoch % 2);
  site.samples = 2;
  site.frames = 500;
  site.wire_bytes = 600000;
  site.pcap_bytes = 60000;
  site.switch_drops_suspected = 5;
  site.frame_sizes = r.frame_sizes;
  r.site_loads.push_back(site);
  TopFlowSketch::Builder sketch(16);
  sketch.insert("flowA", 1000 + epoch);
  sketch.insert("flowB", 500);
  r.top_flows = std::move(sketch).build();
  r.manifest_json = "{\"seed\": " + std::to_string(epoch) + "}";
  return r;
}

TEST(HistCounts, FractionAtOrAboveIncludesOverflow) {
  HistCounts h;
  h.edges = {64, 128, 1519, 9217};
  h.counts = {10, 20, 30};
  h.overflow = 5;
  h.underflow = 35;
  // total = 100; at/above 1519: bucket [1519,9217) = 30, plus overflow 5.
  EXPECT_DOUBLE_EQ(h.fraction_at_or_above(1519.0), 0.35);
  EXPECT_DOUBLE_EQ(HistCounts{}.fraction_at_or_above(1519.0), 0.0);
}

TEST(HistCounts, MergeIsBucketwiseSum) {
  HistCounts a, b;
  a.edges = b.edges = {0, 10, 20};
  a.counts = {1, 2};
  b.counts = {10, 20};
  a.underflow = 1;
  b.overflow = 3;
  a.merge(b);
  EXPECT_EQ(a.counts, (std::vector<std::uint64_t>{11, 22}));
  EXPECT_EQ(a.underflow, 1u);
  EXPECT_EQ(a.overflow, 3u);
  // Merging into an empty histogram adopts the other's shape.
  HistCounts empty;
  empty.merge(b);
  EXPECT_EQ(empty, b);
}

TEST(HistCounts, MergeReBinsMismatchedLayoutsWithoutDroppingCounts) {
  // Regression: mismatched bucket shapes used to silently drop the other
  // side's counts. Heterogeneous configs must re-bin, not discard.
  HistCounts a, b;
  a.edges = {0, 10, 20, 30};
  a.counts = {1, 2, 3};
  a.underflow = 4;
  a.overflow = 5;  // total 15.
  b.edges = {0, 20, 40};  // Shares edges 0 and 20 with a.
  b.counts = {10, 20};
  b.underflow = 1;
  b.overflow = 2;  // total 33.
  const std::uint64_t want_total = a.total() + b.total();

  a.merge(b);
  EXPECT_EQ(a.total(), want_total);
  // Coarsest common layout: the intersection {0, 20} -> one bucket [0,20).
  EXPECT_EQ(a.edges, (std::vector<double>{0, 20}));
  ASSERT_EQ(a.counts.size(), 1u);
  EXPECT_EQ(a.counts[0], 13u);  // a's [0,10)+[10,20) plus b's [0,20).
  // Mass past the common span falls to overflow, not the floor.
  EXPECT_EQ(a.overflow, 30u);   // 5 + a's [20,30)=3 + 2 + b's [20,40)=20.
  EXPECT_EQ(a.underflow, 5u);
}

TEST(HistCounts, MergeWithDisjointLayoutsStillPreservesTotal) {
  HistCounts a, b;
  a.edges = {0, 10};
  a.counts = {5};
  b.edges = {100, 200};
  b.counts = {7};
  const std::uint64_t want_total = a.total() + b.total();
  a.merge(b);
  EXPECT_EQ(a.total(), want_total);  // No common bucket: nothing dropped.
}

TEST(HistCounts, FractionAtOrAboveOffEdgeUsesOverlapFraction) {
  // Regression: a threshold inside a bucket used to exclude that bucket
  // entirely, undercounting off-edge queries.
  HistCounts h;
  h.edges = {0, 100};
  h.counts = {100};
  EXPECT_DOUBLE_EQ(h.fraction_at_or_above(75.0), 0.25);
  EXPECT_DOUBLE_EQ(h.fraction_at_or_above(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.fraction_at_or_above(100.0), 0.0);
  // Partially covered plus fully covered buckets compose.
  HistCounts two;
  two.edges = {0, 10, 20};
  two.counts = {10, 30};
  EXPECT_DOUBLE_EQ(two.fraction_at_or_above(5.0), (5.0 + 30.0) / 40.0);
}

TEST(EpochRecord, CrossOriginMergeQualifiesLabelAndClearsOrigin) {
  // Two deployments can both have an epoch 0 labeled "week38"; the origin
  // tag keeps their identities and their rollup label distinguishable.
  EpochRecord a = sample_record(0, "week38");
  a.origin = "starlight";
  EpochRecord b = sample_record(0, "week38");
  b.origin = "dallas";
  EXPECT_FALSE(record_ident(a) == record_ident(b));

  a.merge_from(b);
  EXPECT_EQ(a.label, "starlight:week38..dallas:week38");
  EXPECT_TRUE(a.origin.empty());  // Mixed provenance.

  // Same-origin merges keep the tag and the plain span label.
  EpochRecord c = sample_record(1, "week39");
  c.origin = "dallas";
  EpochRecord d = sample_record(2, "week40");
  d.origin = "dallas";
  c.merge_from(d);
  EXPECT_EQ(c.label, "week39..week40");
  EXPECT_EQ(c.origin, "dallas");
}

TEST(EpochRecord, Version1PayloadsDecodeWithoutOriginTag) {
  // A v1 payload is the v2 layout minus the origin string (which sits
  // right after the label). Splice it out and decode as version 1.
  EpochRecord original = sample_record(2, "w2");
  original.origin.clear();
  const std::vector<std::uint8_t> v2 = encode_record(original);
  const std::size_t origin_off = 24 + 4 + original.label.size();
  std::vector<std::uint8_t> v1 = v2;
  v1.erase(v1.begin() + static_cast<std::ptrdiff_t>(origin_off),
           v1.begin() + static_cast<std::ptrdiff_t>(origin_off + 4));
  EpochRecord decoded;
  ASSERT_TRUE(decode_record(v1, 1, &decoded));
  EXPECT_TRUE(decoded == original);
}

TEST(EpochRecord, SupersedeMarkerRoundTrip) {
  SupersedeMarker marker;
  SupersedeMarker::Commit commit;
  commit.rollup = {"", 1, 0, 3};
  commit.replaced = {{"", 0, 0, 0}, {"dallas", 0, 1, 1}};
  marker.commits.push_back(commit);
  const std::vector<std::uint8_t> payload = encode_supersede_marker(marker);
  SupersedeMarker decoded;
  ASSERT_TRUE(decode_supersede_marker(payload, &decoded));
  EXPECT_TRUE(decoded == marker);
  // Truncation fails, never misparses.
  for (std::size_t cut = 0; cut < payload.size(); cut += 5) {
    EXPECT_FALSE(decode_supersede_marker(
        std::span<const std::uint8_t>(payload.data(), cut), &decoded));
  }
}

TEST(EpochRecord, EncodeDecodeRoundTrip) {
  const EpochRecord original = sample_record(3, "week3");
  const std::vector<std::uint8_t> payload = encode_record(original);
  EpochRecord decoded;
  ASSERT_TRUE(decode_record(payload, &decoded));
  EXPECT_TRUE(decoded == original);
}

TEST(EpochRecord, EncodingIsDeterministic) {
  EXPECT_EQ(encode_record(sample_record(5, "w5")),
            encode_record(sample_record(5, "w5")));
}

TEST(EpochRecord, DecodeRejectsTruncationAndTrailingGarbage) {
  const std::vector<std::uint8_t> payload =
      encode_record(sample_record(1, "w1"));
  EpochRecord out;
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, payload.size() / 2,
                          payload.size() - 1}) {
    EXPECT_FALSE(decode_record(
        std::span<const std::uint8_t>(payload.data(), cut), &out))
        << "cut=" << cut;
  }
  std::vector<std::uint8_t> padded = payload;
  padded.push_back(0);
  EXPECT_FALSE(decode_record(padded, &out));
}

TEST(EpochRecord, DecodeRejectsAbsurdLengthPrefixes) {
  // A length prefix claiming more bytes than the payload holds must fail
  // fast instead of allocating.
  std::vector<std::uint8_t> payload = encode_record(sample_record(1, "w1"));
  // The label length prefix sits after level(4)+first(8)+last(8)+count(4).
  const std::size_t label_len_off = 24;
  payload[label_len_off] = 0xFF;
  payload[label_len_off + 1] = 0xFF;
  EpochRecord out;
  EXPECT_FALSE(decode_record(payload, &out));
}

TEST(EpochRecord, MergeFromSumsSpansAndJoinsSites) {
  EpochRecord a = sample_record(0, "week38");
  EpochRecord b = sample_record(1, "week39");
  const std::uint64_t want_frames = a.frames + b.frames;

  a.merge_from(b);
  EXPECT_EQ(a.level, 1u);
  EXPECT_TRUE(a.is_rollup());
  EXPECT_EQ(a.first_epoch, 0u);
  EXPECT_EQ(a.last_epoch, 1u);
  EXPECT_EQ(a.epoch_count, 2u);
  EXPECT_EQ(a.label, "week38..week39");
  EXPECT_EQ(a.start_nanos, 0u);
  EXPECT_EQ(a.duration_nanos, 2000u);  // 0..(1000+1000).
  EXPECT_EQ(a.frames, want_frames);
  EXPECT_EQ(a.largest_flow_bytes, 999999u);  // Max, not sum.
  EXPECT_EQ(a.flow_snippets, 154u);          // 77 + 77 snippets.
  EXPECT_TRUE(a.manifest_json.empty());      // Dropped on merge.
  // sample_record(0) loads SITE0, sample_record(1) loads SITE1: disjoint
  // sites stay separate and sorted.
  ASSERT_EQ(a.site_loads.size(), 2u);
  EXPECT_EQ(a.site_loads[0].site, "SITE0");
  EXPECT_EQ(a.site_loads[1].site, "SITE1");

  // Same-site loads fold by sum.
  EpochRecord c = sample_record(2, "week40");  // SITE0 again.
  a.merge_from(c);
  ASSERT_EQ(a.site_loads.size(), 2u);
  EXPECT_EQ(a.site_loads[0].frames, 1000u);
  EXPECT_EQ(a.label, "week38..week40");
  EXPECT_EQ(a.epoch_count, 3u);
}

TEST(EpochRecord, RollupOfRollupsKeepsOutermostSpanLabel) {
  EpochRecord ab = sample_record(0, "w0");
  ab.merge_from(sample_record(1, "w1"));
  EpochRecord cd = sample_record(2, "w2");
  cd.merge_from(sample_record(3, "w3"));
  ab.merge_from(cd);
  EXPECT_EQ(ab.label, "w0..w3");
  EXPECT_EQ(ab.first_epoch, 0u);
  EXPECT_EQ(ab.last_epoch, 3u);
  EXPECT_EQ(ab.epoch_count, 4u);
}

TEST(EpochRecord, MergePreservesSumQueriesUnderAnyGrouping) {
  // The archive's compaction guarantee for sum-type fields: fold four
  // records two different ways and compare everything except the sketch.
  std::vector<EpochRecord> records;
  for (std::uint64_t e = 0; e < 4; ++e) {
    records.push_back(sample_record(e, "w" + std::to_string(e)));
  }
  EpochRecord left = records[0];
  for (std::size_t i = 1; i < 4; ++i) left.merge_from(records[i]);
  EpochRecord pairs_a = records[0];
  pairs_a.merge_from(records[1]);
  EpochRecord pairs_b = records[2];
  pairs_b.merge_from(records[3]);
  pairs_a.merge_from(pairs_b);

  EXPECT_EQ(left.frames, pairs_a.frames);
  EXPECT_EQ(left.frame_sizes, pairs_a.frame_sizes);
  EXPECT_EQ(left.header_occurrence.occurrences,
            pairs_a.header_occurrence.occurrences);
  EXPECT_EQ(left.tcp_control.tcp_frames, pairs_a.tcp_control.tcp_frames);
  EXPECT_TRUE(left.tcp_control == pairs_a.tcp_control);
  EXPECT_TRUE(left.tagging == pairs_a.tagging);
  EXPECT_EQ(left.flow_snippets, pairs_a.flow_snippets);
  EXPECT_EQ(left.site_loads, pairs_a.site_loads);
  EXPECT_EQ(left.epoch_count, pairs_a.epoch_count);
  EXPECT_DOUBLE_EQ(left.offered_bps_sum, pairs_a.offered_bps_sum);
}

}  // namespace
}  // namespace patchwork::archive
