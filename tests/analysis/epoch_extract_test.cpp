#include "analysis/epoch_extract.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "analysis/pipeline.hpp"
#include "testing/fixtures.hpp"
#include "testing/golden_profile.hpp"
#include "testing/thread_count.hpp"
#include "util/crc32.hpp"

namespace patchwork::analysis {
namespace {

using patchwork::testing::make_capture;
using patchwork::testing::tcp_frame;

std::vector<RawCapture> sample_profile() {
  std::vector<RawCapture> captures;
  net::FrameStore frames;
  tcp_frame(frames, 1, 2, 1000, 443, 1900);
  tcp_frame(frames, 2, 1, 443, 1000, 70);
  captures.push_back(make_capture("S1", 0, frames));
  net::FrameStore frames2;
  tcp_frame(frames2, 3, 4, 2000, 5201, 2000);
  captures.push_back(make_capture("S2", 3, frames2, 10 * util::kMinute));
  return captures;
}

EpochMeta sample_meta() {
  EpochMeta meta;
  meta.label = "week38";
  meta.start = 5 * util::kMinute;
  meta.duration = 7 * util::kDay;
  meta.offered_bps = 2.5e12;
  meta.manifest_json = "{\"seed\": 42}";
  return meta;
}

TEST(PipelineSiteLoads, ReportCarriesPerSiteAccounting) {
  const std::vector<RawCapture> captures = sample_profile();
  const ProfileReport report = run_pipeline(captures);

  ASSERT_EQ(report.site_loads.size(), 2u);
  EXPECT_EQ(report.site_loads[0].site, "S1");
  EXPECT_EQ(report.site_loads[1].site, "S2");
  EXPECT_EQ(report.site_loads[0].samples, 1u);
  EXPECT_EQ(report.site_loads[0].frames, 2u);
  EXPECT_EQ(report.site_loads[1].frames, 1u);
  EXPECT_EQ(report.site_loads[0].pcap_bytes, captures[0].pcap.size());
  EXPECT_GT(report.site_loads[0].wire_bytes, 1900u);

  EXPECT_EQ(report.site_loads[0].frame_sizes.total(), 2u);
  EXPECT_EQ(report.site_loads[1].frame_sizes.total(), 1u);
  // Per-site histograms partition the global one.
  EXPECT_EQ(report.site_loads[0].frame_sizes.total() +
                report.site_loads[1].frame_sizes.total(),
            report.frame_sizes.total());
}

TEST(PipelineSiteLoads, SiteWithNoReadableCaptureKeepsItsRows) {
  std::vector<RawCapture> captures = sample_profile();
  RawCapture corrupt;
  corrupt.site = "S3";
  corrupt.start = 20 * util::kMinute;
  corrupt.pcap = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01};
  captures.push_back(corrupt);
  const ProfileReport report = run_pipeline(captures);

  ASSERT_EQ(report.site_loads.size(), 3u);
  EXPECT_EQ(report.site_loads[2].site, "S3");
  EXPECT_EQ(report.site_loads[2].samples, 1u);
  EXPECT_EQ(report.site_loads[2].frames, 0u);
  EXPECT_EQ(report.site_loads[2].pcap_bytes, corrupt.pcap.size());

  EXPECT_EQ(report.site_loads[2].distinct_headers, 0u);
  EXPECT_EQ(report.site_loads[2].deepest_stack, 0u);

  ASSERT_EQ(report.flows_per_sample.size(), 3u);
  EXPECT_EQ(report.flows_per_sample[2].site, "S3");
  EXPECT_EQ(report.flows_per_sample[2].flows, 0u);

  const std::string& sizes = report.csv_files.at("site_frame_sizes.csv");
  std::size_t s3_rows = 0;
  for (std::size_t at = sizes.find("\nS3,"); at != std::string::npos;
       at = sizes.find("\nS3,", at + 1)) {
    ++s3_rows;
  }
  EXPECT_EQ(s3_rows, paper_frame_size_edges().size() - 1);
}

TEST(EpochExtract, RecordMirrorsTheReport) {
  const ProfileReport report = run_pipeline(sample_profile());
  const archive::EpochRecord record =
      extract_epoch_record(report, sample_meta());

  EXPECT_EQ(record.level, 0u);
  EXPECT_EQ(record.epoch_count, 1u);
  EXPECT_EQ(record.label, "week38");
  EXPECT_EQ(record.start_nanos, 5 * util::kMinute);
  EXPECT_DOUBLE_EQ(record.offered_bps_sum, 2.5e12);
  EXPECT_EQ(record.manifest_json, "{\"seed\": 42}");

  EXPECT_EQ(record.frames, report.digest_stats.frames);
  EXPECT_EQ(record.samples, 2u);  // One per capture.
  EXPECT_EQ(record.frame_sizes, report.frame_sizes);
  EXPECT_TRUE(record.header_occurrence == report.header_occurrence);
  EXPECT_EQ(record.header_occurrence.occurrences.size(),
            net::kProtocolCount);
  EXPECT_TRUE(record.tcp_control == report.tcp_control);
  EXPECT_TRUE(record.tagging == report.tagging);
  EXPECT_EQ(record.flow_snippets, report.distinct_flows);
  EXPECT_EQ(record.largest_flow_bytes, report.largest_flow_bytes);

  ASSERT_EQ(record.site_loads.size(), 2u);
  EXPECT_EQ(record.site_loads[0].site, "S1");
  EXPECT_EQ(record.site_loads[1].site, "S2");
  EXPECT_EQ(record.site_loads[0].frame_sizes.total(), 2u);

  // Under capacity the sketch is exact: one entry per distinct flow, zero
  // error, counts equal to the aggregated wire bytes.
  EXPECT_EQ(record.top_flows.size(), report.distinct_flows);
  std::uint64_t sketch_bytes = 0, flow_bytes = 0;
  for (const auto& entry : record.top_flows.entries()) {
    EXPECT_EQ(entry.error, 0u);
    sketch_bytes += entry.count;
  }
  for (const auto& [key, aggregate] : report.flow_aggregates) {
    flow_bytes += aggregate.wire_bytes;
  }
  EXPECT_EQ(sketch_bytes, flow_bytes);
}

TEST(EpochExtract, ExtractionIsDeterministic) {
  const ProfileReport report = run_pipeline(sample_profile());
  const auto a = archive::encode_record(
      extract_epoch_record(report, sample_meta()));
  const auto b = archive::encode_record(
      extract_epoch_record(report, sample_meta()));
  EXPECT_EQ(a, b);
}

TEST(EpochExtract, EmptyReportProducesEmptyRecord) {
  const ProfileReport report = run_pipeline({});
  const archive::EpochRecord record =
      extract_epoch_record(report, sample_meta());
  EXPECT_EQ(record.frames, 0u);
  EXPECT_EQ(record.site_loads.size(), 0u);
  EXPECT_EQ(record.top_flows.size(), 0u);
  // The paper's frame-size buckets stay, empty, in the record and the CSV.
  EXPECT_EQ(record.frame_sizes,
            archive::HistCounts(paper_frame_size_edges()));
  const std::string& sizes = report.csv_files.at("frame_sizes.csv");
  EXPECT_EQ(std::count(sizes.begin(), sizes.end(), '\n'),
            static_cast<std::ptrdiff_t>(paper_frame_size_edges().size()));
  // Still round-trips through the codec.
  archive::EpochRecord decoded;
  ASSERT_TRUE(archive::decode_record(archive::encode_record(record),
                                     &decoded));
  EXPECT_TRUE(decoded == record);
}

std::uint32_t record_crc(const archive::EpochRecord& record) {
  return util::crc32(archive::encode_record(record));
}

/// An epoch's metadata as a deployment stamps it. The top-flow sketch
/// keeps its default capacity.
EpochMeta golden_meta() {
  EpochMeta meta;
  meta.label = "week38";
  meta.start = 5 * util::kMinute;
  meta.duration = 7 * util::kDay;
  meta.offered_bps = 2.5e12;
  meta.manifest_json = "{\"seed\": 42}";
  return meta;
}

/// The next week at another deployment: site S2 again plus S7, which the
/// golden fixture lacks, under a coarser frame-size layout that shares
/// only the edges 64, 256, 1519 and 9217 with the paper's, so a merge
/// re-bins both histograms.
archive::EpochRecord peer_record() {
  std::vector<RawCapture> captures;
  net::FrameStore frames;
  tcp_frame(frames, 1, 2, 1000, 443, 1900);
  tcp_frame(frames, 2, 1, 443, 1000, 70);
  captures.push_back(make_capture("S2", 0, frames));
  net::FrameStore frames2;
  tcp_frame(frames2, 7, 8, 4000, 443, 600);
  tcp_frame(frames2, 7, 8, 4000, 443, 9000);
  captures.push_back(make_capture("S7", 2, frames2, 10 * util::kMinute));
  EpochMeta meta = golden_meta();
  meta.label = "week39";
  meta.start = 7 * util::kDay;
  archive::EpochRecord peer = extract_epoch_record(run_pipeline(captures),
                                                   meta);
  peer.origin = "west";
  // The same frames under the coarser layout.
  peer.frame_sizes.edges = {0, 64, 256, 1519, 9217};
  peer.frame_sizes.counts = {0, 1, 1, 2};
  peer.site_loads.at(0).frame_sizes.edges = {0, 64, 256, 1519, 9217};
  peer.site_loads.at(0).frame_sizes.counts = {0, 1, 0, 1};
  return peer;
}

TEST(EpochExtract, RecordBytesArePinned) {
  const std::vector<RawCapture> captures =
      patchwork::testing::golden_profile();
  for (std::size_t threads : {std::size_t{0}, std::size_t{3}}) {
    patchwork::testing::ScopedThreadCount scoped(threads);
    archive::EpochRecord record =
        extract_epoch_record(run_pipeline(captures), golden_meta());
    EXPECT_EQ(record_crc(record), 20081689u) << "threads=" << threads;
    record.merge_from(peer_record());
    // The merge took the re-bin, cross-origin and site-join paths.
    EXPECT_EQ(record.frame_sizes.edges,
              (std::vector<double>{64, 256, 1519, 9217}));
    EXPECT_EQ(record.label, "week38..west:week39");
    ASSERT_EQ(record.site_loads.size(), 3u);
    EXPECT_EQ(record.site_loads[2].site, "S7");
    EXPECT_EQ(record_crc(record), 1186251177u) << "threads=" << threads;
  }
  EXPECT_EQ(record_crc(extract_epoch_record(run_pipeline({}), golden_meta())),
            2315442924u);
}

}  // namespace
}  // namespace patchwork::analysis
