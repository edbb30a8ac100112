#include "util/logging.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "testing/temp_dir.hpp"

namespace patchwork::util {
namespace {

TEST(Logger, RecordsInOrder) {
  Logger log;
  log.info(10, "a", "first");
  log.warn(20, "b", "second");
  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.records()[0].message, "first");
  EXPECT_EQ(log.records()[1].level, LogLevel::kWarn);
}

TEST(Logger, MinLevelFilters) {
  Logger log(LogLevel::kWarn);
  log.debug(0, "c", "ignored");
  log.info(0, "c", "ignored too");
  log.error(0, "c", "kept");
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].message, "kept");
}

TEST(Logger, AtLeastSelectsSeverity) {
  Logger log;
  log.debug(0, "x", "d");
  log.warn(0, "x", "w");
  log.error(0, "x", "e");
  EXPECT_EQ(log.at_least(LogLevel::kWarn).size(), 2u);
}

TEST(Logger, ForComponent) {
  Logger log;
  log.info(0, "profiler/S1", "a");
  log.info(0, "profiler/S2", "b");
  log.info(0, "profiler/S1", "c");
  EXPECT_EQ(log.for_component("profiler/S1").size(), 2u);
}

TEST(Logger, CountContaining) {
  Logger log;
  log.info(0, "x", "congestion: mirror dropping");
  log.info(0, "x", "sample ok");
  log.warn(0, "x", "congestion: again");
  EXPECT_EQ(log.count_containing("congestion"), 2u);
}

TEST(Logger, MergeSortsByTime) {
  Logger a, b;
  a.info(30, "a", "late");
  b.info(10, "b", "early");
  a.merge(b);
  ASSERT_EQ(a.records().size(), 2u);
  EXPECT_EQ(a.records()[0].message, "early");
  EXPECT_EQ(a.records()[1].message, "late");
}

TEST(Logger, RenderContainsLevelAndComponent) {
  Logger log;
  log.error(2 * kSecond, "dpdk-writer", "ring overflow");
  const std::string text = log.render();
  EXPECT_NE(text.find("ERROR"), std::string::npos);
  EXPECT_NE(text.find("dpdk-writer"), std::string::npos);
  EXPECT_NE(text.find("ring overflow"), std::string::npos);
}

TEST(Logger, BoundedBufferEvictsOldestAndCountsDrops) {
  const std::uint64_t before = logger_dropped_total();
  Logger log;
  log.set_capacity(3);
  for (int i = 0; i < 5; ++i) {
    log.info(i, "x", "msg" + std::to_string(i));
  }
  ASSERT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.records()[0].message, "msg2");  // msg0/msg1 evicted.
  EXPECT_EQ(log.records()[2].message, "msg4");
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(logger_dropped_total() - before, 2u);
}

TEST(Logger, ZeroCapacityMeansUnbounded) {
  Logger log;
  log.set_capacity(0);
  for (int i = 0; i < 100; ++i) log.info(i, "x", "m");
  EXPECT_EQ(log.records().size(), 100u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(LogLevelParse, NamesAndCase) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("verbose"), std::nullopt);
}

TEST(LiveSinkSpecParse, LevelOnlyMeansStderr) {
  const auto spec = parse_live_sink_spec("warn");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->min_level, LogLevel::kWarn);
  EXPECT_TRUE(spec->path.empty());
}

TEST(LiveSinkSpecParse, LevelColonPath) {
  const auto spec = parse_live_sink_spec("debug:/tmp/run.log");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->min_level, LogLevel::kDebug);
  EXPECT_EQ(spec->path, "/tmp/run.log");
}

TEST(LiveSinkSpecParse, BadLevelRejected) {
  EXPECT_FALSE(parse_live_sink_spec("chatty").has_value());
  EXPECT_FALSE(parse_live_sink_spec("chatty:/tmp/x").has_value());
}

TEST(LiveSink, MirrorsRecordsToFileAboveThreshold) {
  const patchwork::testing::TestTempDir tmp;
  const std::string path = tmp.path("live_sink.log");
  set_live_sink(LiveSinkSpec{LogLevel::kWarn, path});

  Logger log;
  log.info(1 * kSecond, "quiet", "below threshold");
  log.warn(2 * kSecond, "profiler/S1", "setup: back-off to 2 instance(s)");
  set_live_sink(std::nullopt);  // Disable before reading.
  log.error(3 * kSecond, "x", "not mirrored after disable");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content.find("below threshold"), std::string::npos);
  EXPECT_NE(content.find("back-off to 2"), std::string::npos);
  EXPECT_NE(content.find("WARN"), std::string::npos);
  EXPECT_EQ(content.find("not mirrored"), std::string::npos);
}

}  // namespace
}  // namespace patchwork::util
