// Incremental compaction commits: bounded append instead of whole-file
// rewrite, idempotent replay, crash recovery mid-commit, and GC.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "archive/compactor.hpp"
#include "archive/query.hpp"
#include "archive/reader.hpp"
#include "archive/writer.hpp"
#include "testing/temp_dir.hpp"
#include "util/file_io.hpp"

namespace patchwork::archive {
namespace {

class IncrementalCompactionTest : public ::testing::Test {
 protected:
  EpochRecord record(std::uint64_t n) {
    EpochRecord r;
    r.label = "e" + std::to_string(n);
    r.start_nanos = n * 100;
    r.duration_nanos = 100;
    r.frames = 1000 + n;
    r.samples = 2;
    r.flow_snippets = 10 + n;
    r.frame_sizes.edges = {64, 1519, 9217};
    r.frame_sizes.counts = {n + 1, 2 * n + 1};
    SiteEpochLoad site;
    site.site = n % 2 == 0 ? "STAR" : "DALL";
    site.frames = 500 + n;
    r.site_loads.push_back(site);
    TopFlowSketch::Builder sketch(8);
    for (std::uint64_t i = 0; i < 5; ++i) {
      sketch.insert("f" + std::to_string((n + i) % 9), 100 * (n + 1));
    }
    r.top_flows = std::move(sketch).build();
    r.manifest_json = "{\"epoch\": " + std::to_string(n) + "}";
    return r;
  }

  void write_epochs(std::uint64_t n) {
    ArchiveWriter writer;
    ASSERT_EQ(writer.open(path_), OpenError::kNone);
    for (std::uint64_t i = 0; i < n; ++i) ASSERT_TRUE(writer.append(record(i)));
  }

  std::vector<std::uint8_t> file_bytes() {
    auto bytes = util::read_file_bytes(path_, kMaxArchiveBytes);
    EXPECT_TRUE(bytes.has_value());
    return bytes.value_or(std::vector<std::uint8_t>{});
  }

  patchwork::testing::TestTempDir tmp_;
  std::string path_ = tmp_.path("archive.pwar");
};

TEST_F(IncrementalCompactionTest, CommitAppendsWithoutRewritingTheFile) {
  write_epochs(12);
  const std::vector<std::uint8_t> before = file_bytes();

  CompactionOptions options;
  options.storage_budget_bytes = before.size() / 2;
  options.group_size = 4;
  const CompactionResult result = compact_archive(path_, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.changed);
  EXPECT_FALSE(result.gc);
  EXPECT_GT(result.rollups_committed, 0u);
  EXPECT_LT(result.records_after, result.records_before);

  // The original bytes are untouched — the commit is a pure append whose
  // size is bounded by the rollups, not the archive.
  const std::vector<std::uint8_t> after = file_bytes();
  ASSERT_GT(after.size(), before.size());
  EXPECT_TRUE(std::equal(before.begin(), before.end(), after.begin()));
  EXPECT_EQ(after.size() - before.size(), result.bytes_appended);
  EXPECT_LT(result.bytes_appended, before.size());

  // The logical view shrank to the compacted records and stays under
  // budget even though the physical file grew.
  ArchiveReader reader;
  ASSERT_EQ(reader.open(path_), OpenError::kNone);
  EXPECT_EQ(reader.records().size(), result.records_after);
  EXPECT_LE(kFileHeaderSize + reader.live_bytes(),
            options.storage_budget_bytes);
  EXPECT_GT(reader.superseded_records(), 0u);
  EXPECT_EQ(reader.orphan_pending(), 0u);
}

TEST_F(IncrementalCompactionTest, CommitPreservesSumQueries) {
  write_epochs(10);
  OpenError error = OpenError::kNone;
  const ArchiveQuery raw = ArchiveQuery::from_file(path_, &error);
  ASSERT_EQ(error, OpenError::kNone);

  CompactionOptions options;
  options.storage_budget_bytes = util::file_size_bytes(path_).value_or(0) / 3;
  ASSERT_TRUE(compact_archive(path_, options).ok());

  const ArchiveQuery compacted = ArchiveQuery::from_file(path_, &error);
  ASSERT_EQ(error, OpenError::kNone);
  EXPECT_LT(compacted.record_count(), raw.record_count());
  EXPECT_EQ(compacted.epochs_covered(), raw.epochs_covered());
  EXPECT_EQ(compacted.totals().frames, raw.totals().frames);
  EXPECT_EQ(compacted.totals().frame_sizes, raw.totals().frame_sizes);
  EXPECT_EQ(compacted.totals().site_loads, raw.totals().site_loads);
  EXPECT_EQ(compacted.totals().flow_snippets, raw.totals().flow_snippets);
}

TEST_F(IncrementalCompactionTest, SecondRunIsAByteLevelNoOp) {
  write_epochs(12);
  CompactionOptions options;
  options.storage_budget_bytes = util::file_size_bytes(path_).value_or(0) / 2;
  ASSERT_TRUE(compact_archive(path_, options).ok());

  const std::vector<std::uint8_t> after_first = file_bytes();
  const CompactionResult second = compact_archive(path_, options);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.changed);
  EXPECT_EQ(second.bytes_appended, 0u);
  EXPECT_EQ(file_bytes(), after_first);
}

TEST_F(IncrementalCompactionTest, CrashBeforeMarkerLeavesRawRecordsLive) {
  write_epochs(12);
  const std::vector<std::uint8_t> before = file_bytes();
  OpenError error = OpenError::kNone;
  const ArchiveQuery raw = ArchiveQuery::from_file(path_, &error);
  ASSERT_EQ(error, OpenError::kNone);

  CompactionOptions options;
  options.storage_budget_bytes = before.size() / 2;
  const CompactionResult commit = compact_archive(path_, options);
  ASSERT_TRUE(commit.ok());
  ASSERT_GT(commit.bytes_appended, 0u);

  // Simulate a crash mid-commit: cut the append so the supersede marker
  // (the last block) is lost but at least one pending rollup survives
  // complete. The raw records must be authoritative again.
  ASSERT_TRUE(util::truncate_file(path_, before.size() +
                                             commit.bytes_appended / 2));
  ArchiveReader reader;
  ASSERT_EQ(reader.open(path_), OpenError::kNone);
  EXPECT_EQ(reader.records().size(), raw.record_count());
  const ArchiveQuery recovered = ArchiveQuery::from_file(path_, &error);
  ASSERT_EQ(error, OpenError::kNone);
  EXPECT_TRUE(recovered.totals() == raw.totals());

  // Re-running compaction converges: same logical records as an
  // uninterrupted run, with the orphan left behind as garbage.
  const CompactionResult retry = compact_archive(path_, options);
  ASSERT_TRUE(retry.ok());
  ArchiveReader after;
  ASSERT_EQ(after.open(path_), OpenError::kNone);
  EXPECT_EQ(after.records().size(), commit.records_after);
  const ArchiveQuery converged = ArchiveQuery::from_file(path_, &error);
  ASSERT_EQ(error, OpenError::kNone);
  EXPECT_EQ(converged.totals().frames, raw.totals().frames);
  EXPECT_EQ(converged.totals().frame_sizes, raw.totals().frame_sizes);
  EXPECT_EQ(converged.epochs_covered(), raw.epochs_covered());
}

TEST_F(IncrementalCompactionTest, GcShedsGarbageWithoutChangingAnswers) {
  write_epochs(12);
  CompactionOptions options;
  options.storage_budget_bytes = util::file_size_bytes(path_).value_or(0) / 2;
  ASSERT_TRUE(compact_archive(path_, options).ok());

  OpenError error = OpenError::kNone;
  const ArchiveQuery before_gc = ArchiveQuery::from_file(path_, &error);
  ASSERT_EQ(error, OpenError::kNone);
  const std::uint64_t bytes_before = util::file_size_bytes(path_).value_or(0);

  const CompactionResult gc = gc_archive(path_);
  ASSERT_TRUE(gc.ok());
  EXPECT_TRUE(gc.changed);
  EXPECT_TRUE(gc.gc);
  EXPECT_LT(util::file_size_bytes(path_).value_or(0), bytes_before);

  const ArchiveQuery after_gc = ArchiveQuery::from_file(path_, &error);
  ASSERT_EQ(error, OpenError::kNone);
  EXPECT_TRUE(after_gc.records() == before_gc.records());
  EXPECT_TRUE(after_gc.totals() == before_gc.totals());

  ArchiveReader reader;
  ASSERT_EQ(reader.open(path_), OpenError::kNone);
  EXPECT_EQ(reader.garbage_bytes(), 0u);
  // A second GC over the clean file is a byte-level no-op.
  const std::vector<std::uint8_t> clean = file_bytes();
  const CompactionResult second = gc_archive(path_);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.changed);
  EXPECT_EQ(file_bytes(), clean);
}

}  // namespace
}  // namespace patchwork::archive
