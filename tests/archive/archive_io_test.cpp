// Failure-mode coverage for the on-disk archive: truncated tails, flipped
// bytes, version skew, and compaction idempotence.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "archive/compactor.hpp"
#include "archive/query.hpp"
#include "archive/reader.hpp"
#include "archive/writer.hpp"
#include "obs/metrics.hpp"
#include "testing/temp_dir.hpp"
#include "util/crc32.hpp"
#include "util/file_io.hpp"

namespace patchwork::archive {
namespace {

class ArchiveIoTest : public ::testing::Test {
 protected:
  EpochRecord record(std::uint64_t n) {
    EpochRecord r;
    r.label = "epoch" + std::to_string(n);
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
    site.wire_bytes = 1000 * (n + 1);
    r.site_loads.push_back(site);
    // More keys across the file than the sketch holds, so folds truncate
    // and the prefix-fold guarantee is exercised for real.
    TopFlowSketch::Builder sketch(8);
    for (std::uint64_t i = 0; i < 6; ++i) {
      sketch.insert("f" + std::to_string((n * 7 + i * 3) % 16),
                    100 * (n + 1) + 10 * i);
    }
    r.top_flows = std::move(sketch).build();
    r.manifest_json = "{\"epoch\": " + std::to_string(n) + "}";
    return r;
  }

  std::vector<std::uint8_t> file_bytes() {
    auto bytes = util::read_file_bytes(path_, kMaxArchiveBytes);
    EXPECT_TRUE(bytes.has_value());
    return bytes.value_or(std::vector<std::uint8_t>{});
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

TEST_F(ArchiveIoTest, AppendReopenRoundTrip) {
  {
    ArchiveWriter writer;
    ASSERT_EQ(writer.open(path_), OpenError::kNone);
    EXPECT_EQ(writer.next_epoch_index(), 0u);
    ASSERT_TRUE(writer.append(record(0)));
    ASSERT_TRUE(writer.append(record(1)));
    EXPECT_EQ(writer.next_epoch_index(), 2u);
  }
  // Reopen: indices continue, records persist in order.
  ArchiveWriter writer;
  ASSERT_EQ(writer.open(path_), OpenError::kNone);
  EXPECT_EQ(writer.next_epoch_index(), 2u);
  ASSERT_TRUE(writer.append(record(2)));

  ArchiveReader reader;
  ASSERT_EQ(reader.open(path_), OpenError::kNone);
  ASSERT_EQ(reader.records().size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(reader.records()[i].first_epoch, i);
    EXPECT_EQ(reader.records()[i].label, "epoch" + std::to_string(i));
    EXPECT_EQ(reader.records()[i].manifest_json,
              "{\"epoch\": " + std::to_string(i) + "}");
  }
  EXPECT_EQ(reader.corrupt_blocks(), 0u);
  EXPECT_FALSE(reader.damaged_tail());
}

TEST_F(ArchiveIoTest, TruncatedTailIsDroppedAndRecoveredOnOpen) {
  ArchiveWriter writer;
  ASSERT_EQ(writer.open(path_), OpenError::kNone);
  ASSERT_TRUE(writer.append(record(0)));
  ASSERT_TRUE(writer.append(record(1)));

  // Simulate a crash mid-append: chop the last 7 bytes.
  const std::vector<std::uint8_t> full = file_bytes();
  ASSERT_TRUE(util::truncate_file(path_, full.size() - 7));

  ArchiveReader reader;
  ASSERT_EQ(reader.open(path_), OpenError::kNone);
  EXPECT_EQ(reader.records().size(), 1u);
  EXPECT_TRUE(reader.damaged_tail());
  EXPECT_EQ(reader.records()[0].label, "epoch0");

  // Writer open truncates the damage; appends then extend a clean file.
  ArchiveWriter recovered;
  ASSERT_EQ(recovered.open(path_), OpenError::kNone);
  EXPECT_EQ(recovered.next_epoch_index(), 1u);
  ASSERT_TRUE(recovered.append(record(1)));
  ArchiveReader after;
  ASSERT_EQ(after.open(path_), OpenError::kNone);
  EXPECT_EQ(after.records().size(), 2u);
  EXPECT_FALSE(after.damaged_tail());
  EXPECT_EQ(after.records()[1].first_epoch, 1u);
}

TEST_F(ArchiveIoTest, FlippedPayloadByteSkipsOneBlockAndCountsIt) {
  ArchiveWriter writer;
  ASSERT_EQ(writer.open(path_), OpenError::kNone);
  ASSERT_TRUE(writer.append(record(0)));
  const std::uint64_t first_end = util::file_size_bytes(path_).value_or(0);
  ASSERT_TRUE(writer.append(record(1)));
  ASSERT_TRUE(writer.append(record(2)));

  // Flip one byte inside the middle block's payload.
  std::vector<std::uint8_t> bytes = file_bytes();
  bytes[first_end + kBlockHeaderSize + 5] ^= 0x01;
  ASSERT_TRUE(util::write_file_atomic(
      path_, std::span<const std::uint8_t>(bytes)));

  const std::uint64_t corrupt_before =
      counter_value("patchwork_archive_corrupt_blocks_total");
  ArchiveReader reader;
  ASSERT_EQ(reader.open(path_), OpenError::kNone);
  EXPECT_EQ(reader.corrupt_blocks(), 1u);
  EXPECT_FALSE(reader.damaged_tail());
  // Exactly the damaged block is gone; the one after it still loads.
  ASSERT_EQ(reader.records().size(), 2u);
  EXPECT_EQ(reader.records()[0].label, "epoch0");
  EXPECT_EQ(reader.records()[1].label, "epoch2");
  EXPECT_EQ(counter_value("patchwork_archive_corrupt_blocks_total"),
            corrupt_before + 1);
}

TEST_F(ArchiveIoTest, CorruptedLengthFieldDamagesTheTailOnly) {
  ArchiveWriter writer;
  ASSERT_EQ(writer.open(path_), OpenError::kNone);
  ASSERT_TRUE(writer.append(record(0)));
  const std::uint64_t first_end = util::file_size_bytes(path_).value_or(0);
  ASSERT_TRUE(writer.append(record(1)));

  // Blow up the second block's length field beyond kMaxBlockPayload.
  std::vector<std::uint8_t> bytes = file_bytes();
  bytes[first_end] = 0xFF;
  bytes[first_end + 1] = 0xFF;
  bytes[first_end + 2] = 0xFF;
  ASSERT_TRUE(util::write_file_atomic(
      path_, std::span<const std::uint8_t>(bytes)));

  ArchiveReader reader;
  ASSERT_EQ(reader.open(path_), OpenError::kNone);
  EXPECT_TRUE(reader.damaged_tail());
  EXPECT_EQ(reader.valid_bytes(), first_end);
  ASSERT_EQ(reader.records().size(), 1u);
  EXPECT_EQ(reader.records()[0].label, "epoch0");
}

TEST_F(ArchiveIoTest, NewerFormatVersionRejectsCleanly) {
  ArchiveWriter writer;
  ASSERT_EQ(writer.open(path_), OpenError::kNone);
  ASSERT_TRUE(writer.append(record(0)));

  std::vector<std::uint8_t> bytes = file_bytes();
  bytes[4] = 0xFF;  // format_version hi byte: far newer than this build.
  ASSERT_TRUE(util::write_file_atomic(
      path_, std::span<const std::uint8_t>(bytes)));

  ArchiveReader reader;
  EXPECT_EQ(reader.open(path_), OpenError::kVersionTooNew);
  EXPECT_TRUE(reader.records().empty());
  // The writer refuses too — never append to a file we cannot parse.
  ArchiveWriter refuse;
  EXPECT_EQ(refuse.open(path_), OpenError::kVersionTooNew);
}

TEST_F(ArchiveIoTest, NewerPayloadVersionBlocksAreSkippedNotFatal) {
  ArchiveWriter writer;
  ASSERT_EQ(writer.open(path_), OpenError::kNone);
  ASSERT_TRUE(writer.append(record(0)));

  // Hand-craft a block with payload_version 200: framed and CRC-valid,
  // just newer than this reader.
  std::vector<std::uint8_t> bytes = file_bytes();
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  std::vector<std::uint8_t> block;
  append_block(block, BlockType::kEpoch, payload);
  block[5] = 200;  // payload_version — breaks the CRC...
  // ...so recompute it the way the writer would for that header.
  std::vector<std::uint8_t> covered(block.begin() + 4, block.begin() + 8);
  covered.insert(covered.end(), payload.begin(), payload.end());
  const std::uint32_t crc = util::crc32(covered);
  block[8] = static_cast<std::uint8_t>(crc >> 24);
  block[9] = static_cast<std::uint8_t>(crc >> 16);
  block[10] = static_cast<std::uint8_t>(crc >> 8);
  block[11] = static_cast<std::uint8_t>(crc);
  bytes.insert(bytes.end(), block.begin(), block.end());
  ASSERT_TRUE(util::write_file_atomic(
      path_, std::span<const std::uint8_t>(bytes)));

  ArchiveReader reader;
  ASSERT_EQ(reader.open(path_), OpenError::kNone);
  EXPECT_EQ(reader.records().size(), 1u);
  EXPECT_EQ(reader.skipped_newer_blocks(), 1u);
  EXPECT_EQ(reader.corrupt_blocks(), 0u);
}

TEST_F(ArchiveIoTest, BadMagicRejects) {
  ASSERT_TRUE(util::write_file_atomic(path_, std::string_view("GARBAGE!")));
  ArchiveReader reader;
  EXPECT_EQ(reader.open(path_), OpenError::kBadMagic);
  ArchiveReader missing;
  EXPECT_EQ(missing.open(path_ + ".does-not-exist"), OpenError::kIo);
}

TEST_F(ArchiveIoTest, CompactionRespectsBudgetAndIsIdempotent) {
  ArchiveWriter writer;
  ASSERT_EQ(writer.open(path_), OpenError::kNone);
  for (std::uint64_t n = 0; n < 12; ++n) ASSERT_TRUE(writer.append(record(n)));
  const std::uint64_t raw_size = util::file_size_bytes(path_).value_or(0);
  ArchiveReader raw;
  ASSERT_EQ(raw.open(path_), OpenError::kNone);

  CompactionOptions options;
  options.storage_budget_bytes = raw_size / 2;
  options.group_size = 4;
  const CompactionResult first = compact_archive(path_, options);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.changed);
  EXPECT_FALSE(first.gc);
  EXPECT_LT(first.records_after, first.records_before);

  // The incremental commit, once GC sheds what it superseded, leaves the
  // image the plan's records render to, within the budget.
  const CompactionResult gc = gc_archive(path_);
  ASSERT_TRUE(gc.ok());
  EXPECT_TRUE(gc.gc);
  EXPECT_LE(gc.bytes_after, options.storage_budget_bytes);
  const std::vector<std::uint8_t> after_first = file_bytes();
  EXPECT_EQ(after_first, render_archive(
                             plan_compaction(raw.take_records(), options)
                                 .records));

  // Idempotence: a second pass under the same budget writes nothing.
  const CompactionResult second = compact_archive(path_, options);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.changed);
  EXPECT_EQ(second.passes, 0u);
  EXPECT_EQ(file_bytes(), after_first);
}

TEST_F(ArchiveIoTest, CompactionRewritesADamagedFile) {
  ArchiveWriter writer;
  ASSERT_EQ(writer.open(path_), OpenError::kNone);
  for (std::uint64_t n = 0; n < 3; ++n) ASSERT_TRUE(writer.append(record(n)));
  const std::vector<std::uint8_t> full = file_bytes();
  ASSERT_TRUE(util::truncate_file(path_, full.size() - 7));

  // Under budget, but an append cannot shed a damaged tail: the commit
  // rewrites the live records whole.
  const CompactionResult result = compact_archive(path_, CompactionOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.changed);
  EXPECT_TRUE(result.gc);
  EXPECT_EQ(result.passes, 0u);
  ArchiveReader reader;
  ASSERT_EQ(reader.open(path_), OpenError::kNone);
  EXPECT_FALSE(reader.damaged_tail());
  EXPECT_EQ(reader.records().size(), 2u);
}

TEST_F(ArchiveIoTest, CompactionPreservesSumQueriesAndEpochCoverage) {
  ArchiveWriter writer;
  ASSERT_EQ(writer.open(path_), OpenError::kNone);
  for (std::uint64_t n = 0; n < 10; ++n) ASSERT_TRUE(writer.append(record(n)));

  OpenStatus status;
  const ArchiveQuery raw =
      ArchiveQuery::from_file(path_, QueryWindow{}, &status);
  ASSERT_EQ(status.error, OpenError::kNone);

  CompactionOptions options;
  options.storage_budget_bytes =
      util::file_size_bytes(path_).value_or(0) / 3;
  const CompactionResult result = compact_archive(path_, options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.changed);

  const ArchiveQuery compacted =
      ArchiveQuery::from_file(path_, QueryWindow{}, &status);
  ASSERT_EQ(status.error, OpenError::kNone);
  EXPECT_LT(compacted.record_count(), raw.record_count());
  EXPECT_EQ(compacted.epochs_covered(), raw.epochs_covered());
  // Whole-archive sums are exactly preserved.
  EXPECT_EQ(compacted.totals().frames, raw.totals().frames);
  EXPECT_EQ(compacted.totals().flow_snippets, raw.totals().flow_snippets);
  EXPECT_EQ(compacted.totals().frame_sizes, raw.totals().frame_sizes);
  EXPECT_EQ(compacted.totals().site_loads, raw.totals().site_loads);
  EXPECT_EQ(compacted.totals().first_epoch, raw.totals().first_epoch);
  EXPECT_EQ(compacted.totals().last_epoch, raw.totals().last_epoch);
}

TEST_F(ArchiveIoTest, SinglePrefixRollupPreservesTopFlowsExactly) {
  // Fold guarantee in its exact form: compact everything into ONE rollup
  // (the left fold) and compare against the query's own left fold of the
  // raw records — identical entries, errors, and floor.
  ArchiveWriter writer;
  ASSERT_EQ(writer.open(path_), OpenError::kNone);
  for (std::uint64_t n = 0; n < 8; ++n) ASSERT_TRUE(writer.append(record(n)));

  OpenStatus status;
  const ArchiveQuery raw =
      ArchiveQuery::from_file(path_, QueryWindow{}, &status);
  ASSERT_EQ(status.error, OpenError::kNone);

  CompactionOptions options;
  options.storage_budget_bytes = 1;  // Forces a full fold.
  options.group_size = 64;           // One group covers every record.
  ASSERT_TRUE(compact_archive(path_, options).ok());

  const ArchiveQuery folded =
      ArchiveQuery::from_file(path_, QueryWindow{}, &status);
  ASSERT_EQ(status.error, OpenError::kNone);
  ASSERT_EQ(folded.record_count(), 1u);
  EXPECT_TRUE(folded.totals().top_flows == raw.totals().top_flows);
}

}  // namespace
}  // namespace patchwork::archive
