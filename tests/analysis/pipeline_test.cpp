#include "analysis/pipeline.hpp"

#include <gtest/gtest.h>

#include "testing/fixtures.hpp"

namespace patchwork::analysis {
namespace {

using patchwork::testing::make_capture;
using patchwork::testing::tcp_frame;

std::vector<RawCapture> sample_profile() {
  std::vector<RawCapture> captures;
  captures.push_back(make_capture(
      "S1", 0,
      {tcp_frame(1, 2, 1000, 443, 1900), tcp_frame(2, 1, 443, 1000, 70)}));
  captures.push_back(
      make_capture("S2", 3, {tcp_frame(3, 4, 2000, 5201, 2000)},
                   10 * util::kMinute));
  return captures;
}

TEST(Pipeline, RunsAllStages) {
  const ProfileReport report = run_pipeline(sample_profile());
  EXPECT_EQ(report.digest_stats.frames, 3u);
  EXPECT_EQ(report.frame_sizes.frames, 3u);
  EXPECT_EQ(report.site_loads.size(), 2u);
  EXPECT_EQ(report.flows_per_sample.size(), 2u);
  EXPECT_EQ(report.distinct_flows, 2u);
  EXPECT_GT(report.largest_flow_bytes, 1900u);
  EXPECT_GT(report.tcp_control.tcp_frames, 0u);
  EXPECT_EQ(report.tagging.frames, 3u);
}

TEST(Pipeline, EmitsEveryCsv) {
  const ProfileReport report = run_pipeline(sample_profile());
  for (const char* name :
       {"frame_sizes.csv", "site_frame_sizes.csv", "header_occurrence.csv",
        "site_variety.csv", "flows_per_sample.csv", "flow_aggregate.csv",
        "tcp_control.csv", "tagging.csv", "top_stacks.csv",
        "flow_distribution.csv"}) {
    ASSERT_TRUE(report.csv_files.count(name)) << name;
    EXPECT_FALSE(report.csv_files.at(name).empty()) << name;
  }
}

TEST(Pipeline, EmptyProfileIsHarmless) {
  const ProfileReport report = run_pipeline({});
  EXPECT_EQ(report.digest_stats.frames, 0u);
  EXPECT_EQ(report.distinct_flows, 0u);
  EXPECT_EQ(report.csv_files.size(), 10u);
}

}  // namespace
}  // namespace patchwork::analysis
