// Golden bytes for the Process step: run_pipeline over the golden fixture
// (testing/golden_profile.hpp), which touches every analysis, must render
// every CSV byte-for-byte as pinned here. The pins are CRC32s of the ten
// files, plus the Digest counters and each site's pcap bytes, which no CSV
// shows; a change that moves any of them changes what the pipeline
// writes, not just how it computes it.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "analysis/pipeline.hpp"
#include "testing/golden_profile.hpp"
#include "testing/thread_count.hpp"
#include "util/crc32.hpp"

namespace patchwork::analysis {
namespace {

using patchwork::testing::golden_profile;

std::uint32_t crc_of(const std::string& bytes) {
  return util::crc32(std::span(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

TEST(PipelineGolden, CsvBytesArePinned) {
  const std::map<std::string, std::uint32_t> golden = {
      {"flow_aggregate.csv", 3336279255u},
      {"flow_distribution.csv", 1306528470u},
      {"flows_per_sample.csv", 2642550254u},
      {"frame_sizes.csv", 3094127880u},
      {"header_occurrence.csv", 3654930704u},
      {"site_frame_sizes.csv", 1573833774u},
      {"site_variety.csv", 1513358692u},
      {"tagging.csv", 3803689864u},
      {"tcp_control.csv", 1011114681u},
      {"top_stacks.csv", 683363803u},
  };
  const std::vector<RawCapture> captures = golden_profile();
  for (std::size_t threads : {std::size_t{0}, std::size_t{3}}) {
    patchwork::testing::ScopedThreadCount scoped(threads);
    const ProfileReport report = run_pipeline(captures);
    EXPECT_EQ(report.digest_stats.frames, 12u);
    EXPECT_EQ(report.digest_stats.bad_records, 1u);
    EXPECT_EQ(report.digest_stats.truncated_frames, 2u);
    EXPECT_EQ(report.digest_stats.malformed_frames, 0u);
    std::map<std::string, std::uint64_t> pcap_bytes;
    for (const SiteLoad& load : report.site_loads) {
      pcap_bytes[load.site] = load.pcap_bytes;
    }
    EXPECT_EQ(pcap_bytes, (std::map<std::string, std::uint64_t>{
                              {"S1", 924u}, {"S2", 644u}}))
        << "threads=" << threads;
    ASSERT_EQ(report.csv_files.size(), golden.size());
    for (const auto& [name, crc] : golden) {
      ASSERT_TRUE(report.csv_files.count(name)) << name;
      const std::string& bytes = report.csv_files.at(name);
      EXPECT_EQ(crc_of(bytes), crc)
          << "threads=" << threads << " " << name << ":\n" << bytes;
    }
  }
}

}  // namespace
}  // namespace patchwork::analysis
