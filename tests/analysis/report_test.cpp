#include "analysis/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/digest.hpp"
#include "testing/fixtures.hpp"

namespace patchwork::analysis {
namespace {

using patchwork::testing::make_capture;
using patchwork::testing::tcp_frame;

ProfileAnalysis two_site_analysis() {
  std::vector<RawCapture> captures;
  captures.push_back(make_capture(
      "S1", 0, {tcp_frame(1, 2, 1, 443, 1900), tcp_frame(1, 2, 3, 443, 80)}));
  captures.push_back(make_capture("S2", 0, {tcp_frame(3, 4, 5, 22, 300)}));
  return analyze(captures);
}

std::size_t line_count(const std::string& s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
}

TEST(Report, FrameSizeCsvHasOneRowPerBucket) {
  const auto analysis = two_site_analysis();
  std::ostringstream os;
  write_frame_size_csv(os, analysis.frame_sizes);
  // Header + one row per bucket.
  EXPECT_EQ(line_count(os.str()),
            1 + paper_frame_size_edges().size() - 1);
  EXPECT_NE(os.str().find("bucket_lo"), std::string::npos);
}

TEST(Report, SiteFrameSizeCsvCoversAllSites) {
  const auto analysis = two_site_analysis();
  std::ostringstream os;
  write_site_frame_size_csv(os, analysis.site_loads);
  EXPECT_NE(os.str().find("S1"), std::string::npos);
  EXPECT_NE(os.str().find("S2"), std::string::npos);
}

TEST(Report, HeaderOccurrenceSkipsAbsentProtocols) {
  const auto analysis = two_site_analysis();
  std::ostringstream os;
  write_header_occurrence_csv(os, analysis.header_occurrence);
  EXPECT_NE(os.str().find("ipv4"), std::string::npos);
  EXPECT_EQ(os.str().find("icmp"), std::string::npos);
}

TEST(Report, SiteVarietyCsv) {
  const auto analysis = two_site_analysis();
  std::ostringstream os;
  write_site_variety_csv(os, analysis.site_loads);
  EXPECT_EQ(line_count(os.str()), 3u);  // Header + two sites.
}

TEST(Report, FlowsPerSampleCsv) {
  const auto analysis = two_site_analysis();
  std::ostringstream os;
  write_flows_per_sample_csv(os, analysis.flows_per_sample);
  EXPECT_EQ(line_count(os.str()), 3u);
}

TEST(Report, FlowAggregateCsvSortedByBytes) {
  const auto analysis = two_site_analysis();
  std::ostringstream os;
  write_flow_aggregate_csv(os, analysis.flow_aggregates);
  const std::string out = os.str();
  EXPECT_EQ(line_count(out), 4u);  // Header + 3 flows.
  // Largest flow (1900 B) appears before the smallest (80 B): compare
  // positions of their byte counts.
  EXPECT_LT(out.find("1900"), out.find(",80,"));
}

TEST(Report, TcpControlAndTaggingCsv) {
  const auto analysis = two_site_analysis();
  std::ostringstream os1, os2;
  write_tcp_control_csv(os1, analysis.tcp_control);
  write_tagging_csv(os2, analysis.tagging);
  EXPECT_NE(os1.str().find("tcp_frames,3"), std::string::npos);
  EXPECT_NE(os2.str().find("vlan_tagged,3"), std::string::npos);
}

}  // namespace
}  // namespace patchwork::analysis
