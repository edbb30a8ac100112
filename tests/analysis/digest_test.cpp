#include "analysis/digest.hpp"

#include <gtest/gtest.h>

#include "analysis/analyses.hpp"
#include "testing/fixtures.hpp"

namespace patchwork::analysis {
namespace {

using testing::digest_records;
using testing::make_capture;
using testing::tcp_frame;

TEST(Digest, ProducesOneRecordPerFrame) {
  const auto capture = make_capture(
      "S1", 4, {tcp_frame(1, 2, 100, 200), tcp_frame(3, 4, 300, 400)});
  DigestStats stats;
  const auto records = digest_records(capture, &stats);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(stats.frames, 2u);
}

TEST(Digest, PreservesSampleMetadata) {
  auto capture = make_capture("S2", 7, {tcp_frame(1, 2, 1, 2)},
                              5 * util::kMinute);
  capture.switch_drops_suspected = 42;
  const ProfileAnalysis analysis = analyze({capture});
  ASSERT_EQ(analysis.site_loads.size(), 1u);
  EXPECT_EQ(analysis.site_loads[0].site, "S2");
  EXPECT_EQ(analysis.site_loads[0].switch_drops_suspected, 42u);
  ASSERT_EQ(analysis.flows_per_sample.size(), 1u);
  EXPECT_EQ(analysis.flows_per_sample[0].start, 5 * util::kMinute);
}

TEST(Digest, RecordsKeepWireLengthDespiteTruncation) {
  const auto capture =
      make_capture("S1", 0, {tcp_frame(1, 2, 1, 2, 1514)}, 0, /*snaplen=*/64);
  const auto records = digest_records(capture);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].wire_length, 1514u);
  EXPECT_EQ(records[0].captured_length, 64u);
}

TEST(Digest, CountsTruncatedFrames) {
  // A 64 B snaplen slices into the TCP header of this stack (14 + 4 + 4 +
  // 20 = 42 bytes before TCP; TCP needs 20 more and payload follows).
  const auto capture =
      make_capture("S1", 0, {tcp_frame(1, 2, 1, 2, 1514)}, 0, /*snaplen=*/50);
  DigestStats stats;
  digest(capture, &stats, [](const AcapRecord&) {});
  EXPECT_EQ(stats.truncated_frames, 1u);
}

TEST(Digest, InvalidPcapCountsBadRecords) {
  RawCapture bogus;
  bogus.site = "S1";
  bogus.pcap = {1, 2, 3, 4};
  DigestStats stats;
  EXPECT_TRUE(digest_records(bogus, &stats).empty());
  EXPECT_EQ(stats.bad_records, 1u);
}

TEST(Digest, DigestAllAggregates) {
  std::vector<RawCapture> captures;
  captures.push_back(make_capture("S1", 0, {tcp_frame(1, 2, 1, 2)}));
  captures.push_back(make_capture("S2", 1, {tcp_frame(3, 4, 5, 6),
                                            tcp_frame(5, 6, 7, 8)}));
  const ProfileAnalysis analysis = analyze(captures);
  EXPECT_EQ(analysis.flows_per_sample.size(), 2u);
  EXPECT_EQ(analysis.digest_stats.frames, 3u);
}

TEST(Digest, StatsPointerIsOptional) {
  const auto capture = make_capture("S1", 0, {tcp_frame(1, 2, 1, 2)});
  EXPECT_EQ(digest_records(capture).size(), 1u);  // No crash without stats.
}

}  // namespace
}  // namespace patchwork::analysis
