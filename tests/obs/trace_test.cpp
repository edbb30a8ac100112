// Flight-recorder unit contract: disabled means no recording (and near-zero
// cost), rings overwrite oldest and count drops instead of blocking, and the
// drained timeline renders as Chrome trace-event JSON.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "testing/temp_dir.hpp"

namespace patchwork::obs::trace {
namespace {

/// Restores a quiet global trace state around each test.
class Trace : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
};

TEST_F(Trace, DisabledRecordsNothing) {
  ASSERT_FALSE(enabled());
  record_complete("ignored", 1, 2);
  record_instant("also_ignored");
  { const ScopedEvent scope("scoped_ignored"); }
  EXPECT_TRUE(snapshot_events().empty());
  EXPECT_EQ(dropped_events(), 0u);
}

TEST_F(Trace, RecordsCompleteAndInstantEventsWithArgs) {
  start(/*capacity_per_thread=*/64);
  ASSERT_TRUE(enabled());
  record_complete("render/compress", 100, 250,
                  {.site = 3, .sample = 1, .burst = 7});
  record_instant("marker");
  {
    const ScopedEvent scope("render_unit", {.site = 5});
  }
  stop();

  const std::vector<LaneEvent> events = snapshot_events();
  ASSERT_EQ(events.size(), 3u);

  const auto find = [&](const char* name) -> const Event* {
    for (const LaneEvent& le : events) {
      if (std::string(le.event.name) == name) return &le.event;
    }
    return nullptr;
  };
  const Event* complete = find("render/compress");
  ASSERT_NE(complete, nullptr);
  EXPECT_EQ(complete->phase, 'X');
  EXPECT_EQ(complete->begin_ns, 100u);
  EXPECT_EQ(complete->end_ns, 250u);
  EXPECT_EQ(complete->args.site, 3);
  EXPECT_EQ(complete->args.sample, 1);
  EXPECT_EQ(complete->args.burst, 7);

  const Event* instant = find("marker");
  ASSERT_NE(instant, nullptr);
  EXPECT_EQ(instant->phase, 'i');

  const Event* scoped = find("render_unit");
  ASSERT_NE(scoped, nullptr);
  EXPECT_EQ(scoped->phase, 'X');
  EXPECT_GE(scoped->end_ns, scoped->begin_ns);
  EXPECT_EQ(scoped->args.site, 5);
}

TEST_F(Trace, OverflowOverwritesOldestAndCountsDrops) {
  start(/*capacity_per_thread=*/4);
  const std::uint64_t drops_before = dropped_events();
  for (int i = 0; i < 10; ++i) {
    record_complete(i < 6 ? "old" : "new",
                    static_cast<std::uint64_t>(i),
                    static_cast<std::uint64_t>(i) + 1);
  }
  stop();
  // The ring keeps only the newest 4 of 10; 6 were overwritten.
  EXPECT_EQ(dropped_events() - drops_before, 6u);
  const std::vector<LaneEvent> events = snapshot_events();
  ASSERT_EQ(events.size(), 4u);
  for (const LaneEvent& le : events) {
    EXPECT_STREQ(le.event.name, "new");
  }
}

TEST_F(Trace, LongNamesAreTruncatedNotOverflowed) {
  start(64);
  const std::string long_name(200, 'n');
  record_complete(long_name, 1, 2);
  stop();
  const std::vector<LaneEvent> events = snapshot_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].event.name),
            std::string(Event::kNameCapacity - 1, 'n'));
}

TEST_F(Trace, EachThreadGetsItsOwnLane) {
  start(64);
  constexpr int kThreads = 4;
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t] {
        for (int i = 0; i <= t; ++i) record_complete("work", 1, 2);
      });
    }
    for (std::thread& th : threads) th.join();
  }
  stop();
  const std::vector<LaneEvent> events = snapshot_events();
  // 1 + 2 + 3 + 4 events across four distinct lanes.
  EXPECT_EQ(events.size(), 10u);
  std::vector<std::uint32_t> lanes;
  for (const LaneEvent& le : events) lanes.push_back(le.lane);
  std::sort(lanes.begin(), lanes.end());
  lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());
  EXPECT_EQ(lanes.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(dropped_events(), 0u);
}

TEST_F(Trace, RendersChromeTraceJson) {
  start(64);
  record_complete("render/compress", 1000, 3500, {.site = 2, .sample = 0});
  record_instant("task_steal");
  stop();
  const std::string json = render_chrome_json();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"render/compress\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"patchwork\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"site\":2"), std::string::npos);
  EXPECT_NE(json.find("\"sample\":0"), std::string::npos);
  // Durations are microseconds: 2500 ns -> 2.5 us.
  EXPECT_NE(json.find("\"dur\":2.5"), std::string::npos) << json;
  EXPECT_EQ(json.back(), '\n');
}

TEST_F(Trace, ResetClearsEventsAndDrops) {
  start(2);
  for (int i = 0; i < 8; ++i) record_complete("e", 0, 1);
  stop();
  ASSERT_FALSE(snapshot_events().empty());
  ASSERT_GT(dropped_events(), 0u);
  reset();
  EXPECT_TRUE(snapshot_events().empty());
  EXPECT_EQ(dropped_events(), 0u);
  EXPECT_FALSE(enabled());
}

TEST_F(Trace, EnvConfigurationParsesPathAndCapacity) {
  const patchwork::testing::TestTempDir tmp;
  const std::string path = tmp.path("trace.json");
  ::setenv("PATCHWORK_TRACE", (path + ":128").c_str(), 1);
  EXPECT_TRUE(configure_from_env());
  EXPECT_TRUE(enabled());
  EXPECT_EQ(env_configured_path(), path);
  record_complete("env_event", 10, 20);
  EXPECT_TRUE(write_env_configured());
  EXPECT_FALSE(enabled());  // write_env_configured() stops tracing.
  ::unsetenv("PATCHWORK_TRACE");
}

}  // namespace
}  // namespace patchwork::obs::trace
