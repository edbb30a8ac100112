// Time-windowed queries, open-status damage surfacing, and the read-path
// response cache.
#include <gtest/gtest.h>

#include <barrier>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "archive/query.hpp"
#include "archive/query_cache.hpp"
#include "archive/reader.hpp"
#include "archive/sketch.hpp"
#include "archive/writer.hpp"
#include "obs/metrics.hpp"
#include "testing/temp_dir.hpp"
#include "util/file_io.hpp"

namespace patchwork::archive {
namespace {

class WindowedQueryTest : public ::testing::Test {
 protected:
  EpochRecord record(std::uint64_t n) {
    EpochRecord r;
    r.label = "e" + std::to_string(n);
    r.start_nanos = 1000 + n * 100;  // Epoch n spans [1000+100n, 1100+100n].
    r.duration_nanos = 100;
    r.frames = 10;  // Identical per-epoch mass: totals count windowed epochs.
    r.samples = 1;
    r.frame_sizes.edges = {64, 1519};
    r.frame_sizes.counts = {10};
    return r;
  }

  void write_epochs(std::uint64_t n) {
    ArchiveWriter writer;
    ASSERT_EQ(writer.open(path_), OpenError::kNone);
    for (std::uint64_t i = 0; i < n; ++i) ASSERT_TRUE(writer.append(record(i)));
  }

  std::uint64_t counter_value(const std::string& name) {
    for (const auto& v : obs::registry().snapshot_values()) {
      if (v.name == name) return v.count;
    }
    return 0;
  }

  patchwork::testing::TestTempDir tmp_;
  std::string path_ = tmp_.path("archive.pwar");
};

TEST_F(WindowedQueryTest, EpochWindowFiltersBeforeTheFold) {
  write_epochs(10);
  QueryWindow window;
  window.from_epoch = 3;
  window.to_epoch = 6;
  OpenStatus status;
  const ArchiveQuery query = ArchiveQuery::from_file(path_, window, &status);
  ASSERT_TRUE(status.clean());
  EXPECT_EQ(query.record_count(), 4u);  // Epochs 3,4,5,6 inclusive.
  EXPECT_EQ(query.totals().frames, 40u);
  EXPECT_EQ(query.totals().first_epoch, 3u);
  EXPECT_EQ(query.totals().last_epoch, 6u);
  // Trend points cover only the window.
  const auto points = query.jumbo_share();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points.front().label, "e3");
  EXPECT_EQ(points.back().label, "e6");
}

TEST_F(WindowedQueryTest, NanosWindowUsesOverlapNotContainment) {
  write_epochs(10);
  QueryWindow window;
  // [1250, 1350] overlaps epoch 1 ([1100,1200])? No. Epoch 2 spans
  // [1200,1300] -> overlaps; epoch 3 spans [1300,1400] -> touches 1350.
  window.from_nanos = 1250;
  window.to_nanos = 1350;
  const ArchiveQuery query = ArchiveQuery::from_file(path_, window, nullptr);
  ASSERT_EQ(query.record_count(), 2u);
  EXPECT_EQ(query.records()[0].label, "e2");
  EXPECT_EQ(query.records()[1].label, "e3");

  // Epoch and nanos bounds compose (intersection).
  window.from_epoch = 3;
  const ArchiveQuery both = ArchiveQuery::from_file(path_, window, nullptr);
  ASSERT_EQ(both.record_count(), 1u);
  EXPECT_EQ(both.records()[0].label, "e3");

  // An empty window folds to an empty total, not a crash.
  QueryWindow nothing;
  nothing.from_epoch = 90;
  const ArchiveQuery none = ArchiveQuery::from_file(path_, nothing, nullptr);
  EXPECT_EQ(none.record_count(), 0u);
  EXPECT_EQ(none.totals().frames, 0u);
}

TEST_F(WindowedQueryTest, OpenStatusSurfacesDamageDiagnostics) {
  // Regression: from_file used to discard the reader's damage counters, so
  // a query over a half-eaten archive looked identical to a healthy one.
  write_epochs(3);
  const std::uint64_t file_size = util::file_size_bytes(path_).value_or(0);

  auto bytes = util::read_file_bytes(path_, kMaxArchiveBytes);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[kFileHeaderSize + kBlockHeaderSize + 3] ^= 0x40;  // Flip one bit.
  ASSERT_TRUE(util::write_file_atomic(
      path_, std::span<const std::uint8_t>(*bytes)));

  OpenStatus status;
  const ArchiveQuery query =
      ArchiveQuery::from_file(path_, QueryWindow{}, &status);
  EXPECT_TRUE(status.ok());
  EXPECT_FALSE(status.clean());
  EXPECT_EQ(status.corrupt_blocks, 1u);
  EXPECT_FALSE(status.damaged_tail);
  EXPECT_EQ(status.valid_bytes, file_size);
  EXPECT_EQ(query.record_count(), 2u);  // The damaged record is skipped.

  // A truncated tail surfaces too.
  ASSERT_TRUE(util::truncate_file(path_, file_size - 5));
  const ArchiveQuery tail =
      ArchiveQuery::from_file(path_, QueryWindow{}, &status);
  EXPECT_TRUE(status.ok());
  EXPECT_TRUE(status.damaged_tail);
  EXPECT_LT(status.valid_bytes, file_size);
  EXPECT_EQ(tail.record_count(), 1u);
}

TEST_F(WindowedQueryTest, QueryCacheHitsValidatesAndInvalidates) {
  write_epochs(4);
  QueryCache cache(4);
  const std::uint64_t hits_before =
      counter_value("patchwork_archive_query_cache_hits_total");
  const std::uint64_t misses_before =
      counter_value("patchwork_archive_query_cache_misses_total");

  OpenStatus status;
  const auto first = cache.get(path_, {}, &status);
  ASSERT_TRUE(status.clean());
  EXPECT_EQ(first->record_count(), 4u);
  EXPECT_EQ(counter_value("patchwork_archive_query_cache_misses_total"),
            misses_before + 1);

  // Unchanged file: a hit, and the exact same query object.
  const auto second = cache.get(path_, {}, &status);
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(counter_value("patchwork_archive_query_cache_hits_total"),
            hits_before + 1);

  // A different window is a different entry.
  QueryWindow window;
  window.from_epoch = 2;
  const auto windowed = cache.get(path_, window, &status);
  EXPECT_EQ(windowed->record_count(), 2u);
  EXPECT_NE(windowed.get(), first.get());
  EXPECT_EQ(counter_value("patchwork_archive_query_cache_misses_total"),
            misses_before + 2);

  // Appending invalidates: size changes, the reload sees the new record.
  {
    ArchiveWriter writer;
    ASSERT_EQ(writer.open(path_), OpenError::kNone);
    ASSERT_TRUE(writer.append(record(4)));
  }
  const auto reloaded = cache.get(path_, {}, &status);
  EXPECT_EQ(reloaded->record_count(), 5u);
  EXPECT_NE(reloaded.get(), first.get());
  EXPECT_GE(
      counter_value("patchwork_archive_query_cache_invalidations_total"), 1u);

  // A missing file is an uncached failure.
  const auto missing = cache.get(path_ + ".gone", {}, &status);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(missing->record_count(), 0u);
}

TEST_F(WindowedQueryTest, QueryCacheEvictsLeastRecentlyUsed) {
  write_epochs(4);
  QueryCache cache(2);
  QueryWindow w1, w2, w3;
  w1.from_epoch = 1;
  w2.from_epoch = 2;
  w3.from_epoch = 3;
  (void)cache.get(path_, w1);
  (void)cache.get(path_, w2);
  EXPECT_EQ(cache.size(), 2u);
  (void)cache.get(path_, w3);  // Evicts w1.
  EXPECT_EQ(cache.size(), 2u);
  const std::uint64_t misses_before =
      counter_value("patchwork_archive_query_cache_misses_total");
  (void)cache.get(path_, w1);  // Reload: w1 was evicted.
  EXPECT_EQ(counter_value("patchwork_archive_query_cache_misses_total"),
            misses_before + 1);
}

// Cached queries are shared as shared_ptr<const ArchiveQuery>, so their
// const reads must be safe from many threads at once. A single-record
// window's totals are that record's decoded sketch, read by top_flows().
using QueryCacheConcurrency = WindowedQueryTest;

TEST_F(QueryCacheConcurrency, SharedSingleRecordTopFlowsAgree) {
  EpochRecord r = record(0);
  TopFlowSketch::Builder builder(16);
  for (int i = 0; i < 40; ++i) {
    builder.insert("f" + std::to_string(i), 10 * (i % 7) + 1);
  }
  r.top_flows = std::move(builder).build();
  const auto expected = r.top_flows.top(10);
  {
    ArchiveWriter writer;
    ASSERT_EQ(writer.open(path_), OpenError::kNone);
    ASSERT_TRUE(writer.append(r));
  }

  QueryCache cache(4);
  const auto loaded = cache.get(path_);
  ASSERT_EQ(loaded->record_count(), 1u);

  constexpr std::size_t kReaders = 4;
  std::barrier start(kReaders);
  std::vector<std::vector<TopFlowSketch::Entry>> answers(kReaders);
  std::vector<const ArchiveQuery*> seen(kReaders, nullptr);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      const auto query = cache.get(path_);  // A hit: the shared object.
      seen[t] = query.get();
      start.arrive_and_wait();
      answers[t] = query->top_flows(10);
    });
  }
  for (std::thread& reader : readers) reader.join();

  for (std::size_t t = 0; t < kReaders; ++t) {
    EXPECT_EQ(seen[t], loaded.get()) << "reader " << t;
    EXPECT_EQ(answers[t], expected) << "reader " << t;
  }
}

}  // namespace
}  // namespace patchwork::archive
