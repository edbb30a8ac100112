// The parallel pipeline's contract: output is byte-identical to the serial
// path for every thread count. These tests pin PATCHWORK_THREADS-equivalent
// modes (0 = serial fallback, then 1, 2, 8 workers) and compare every CSV
// byte and every stat counter.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "analysis/pipeline.hpp"
#include "testing/fixtures.hpp"
#include "util/parallel.hpp"

namespace patchwork::analysis {
namespace {

using patchwork::testing::make_capture;
using patchwork::testing::tcp_frame;

/// Restores env/hardware thread resolution when a test scope exits.
struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_thread_count(std::nullopt); }
};

std::vector<RawCapture> multi_site_profile() {
  std::vector<RawCapture> captures;
  // Several sites, uneven sample sizes, repeated flows across samples so
  // flow stitching and per-site analyses all have real work to do.
  for (int site = 0; site < 6; ++site) {
    for (int sample = 0; sample < 3; ++sample) {
      std::vector<net::Frame> frames;
      for (int f = 0; f < 40 + site * 7 + sample * 3; ++f) {
        const auto a = static_cast<std::uint8_t>(1 + (f + site) % 5);
        const auto b = static_cast<std::uint8_t>(6 + f % 4);
        frames.push_back(tcp_frame(
            a, b, static_cast<std::uint16_t>(1000 + f % 13),
            static_cast<std::uint16_t>(f % 2 ? 443 : 5201),
            64 + static_cast<std::size_t>((f * 97) % 1800),
            static_cast<util::Nanos>(f) * util::kMillisecond,
            static_cast<std::uint16_t>(100 + site)));
      }
      captures.push_back(make_capture("S" + std::to_string(site),
                                      static_cast<std::uint32_t>(sample),
                                      frames,
                                      sample * 10 * util::kMinute));
    }
  }
  return captures;
}

void expect_reports_identical(const ProfileReport& a, const ProfileReport& b,
                              const std::string& label) {
  EXPECT_EQ(a.digest_stats.frames, b.digest_stats.frames) << label;
  EXPECT_EQ(a.digest_stats.bad_records, b.digest_stats.bad_records) << label;
  EXPECT_EQ(a.digest_stats.truncated_frames, b.digest_stats.truncated_frames)
      << label;
  EXPECT_EQ(a.digest_stats.malformed_frames, b.digest_stats.malformed_frames)
      << label;
  EXPECT_EQ(a.distinct_flows, b.distinct_flows) << label;
  EXPECT_EQ(a.largest_flow_bytes, b.largest_flow_bytes) << label;
  ASSERT_EQ(a.csv_files.size(), b.csv_files.size()) << label;
  for (const auto& [name, bytes] : a.csv_files) {
    ASSERT_TRUE(b.csv_files.count(name)) << label << ": " << name;
    EXPECT_EQ(bytes, b.csv_files.at(name))
        << label << ": " << name << " differs";
  }
}

TEST(PipelineDeterminism, IdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const std::vector<RawCapture> profile = multi_site_profile();

  util::set_thread_count(0);  // Serial reference.
  const ProfileReport reference = run_pipeline(profile);
  EXPECT_GT(reference.digest_stats.frames, 0u);

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::set_thread_count(threads);
    const ProfileReport parallel = run_pipeline(profile);
    expect_reports_identical(reference, parallel,
                             "threads=" + std::to_string(threads));
  }
}

TEST(PipelineDeterminism, RepeatedParallelRunsAgree) {
  ThreadCountGuard guard;
  const std::vector<RawCapture> profile = multi_site_profile();
  util::set_thread_count(4);
  const ProfileReport first = run_pipeline(profile);
  const ProfileReport second = run_pipeline(profile);
  expect_reports_identical(first, second, "repeat");
}

}  // namespace
}  // namespace patchwork::analysis
