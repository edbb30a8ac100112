// Hostile wire input: payloads that frame and checksum correctly but
// violate the decoded structures' invariants must be rejected and counted,
// never built into poisoned in-memory objects. Runs under ASan in CI.
#include <gtest/gtest.h>

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "archive/compactor.hpp"
#include "archive/format.hpp"
#include "archive/query.hpp"
#include "archive/reader.hpp"
#include "archive/record.hpp"
#include "archive/sketch.hpp"
#include "archive/writer.hpp"
#include "obs/metrics.hpp"
#include "testing/temp_dir.hpp"
#include "util/byte_io.hpp"
#include "util/file_io.hpp"

namespace patchwork::archive {
namespace {

class ArchiveCorruptTest : public ::testing::Test {
 protected:
  // A record whose sketch layout is easy to index from the payload's end:
  // empty manifest, three 2-byte keys.
  EpochRecord sketch_record() {
    EpochRecord r;
    r.label = "e0";
    r.frames = 10;
    TopFlowSketch::Builder sketch(8);
    sketch.insert("aa", 300);
    sketch.insert("bb", 200);
    sketch.insert("cc", 100);
    r.top_flows = std::move(sketch).build();
    return r;
  }

  // Payload tail layout (record codec): capacity u32 | floor u64 |
  // entry_count u32 | entries (4+2+8+8 each) | manifest string (u32 len 0).
  static std::size_t capacity_offset(const std::vector<std::uint8_t>& p) {
    return p.size() - 4 - 3 * (4 + 2 + 8 + 8) - 4 - 8 - 4;
  }
  static std::size_t last_error_offset(const std::vector<std::uint8_t>& p) {
    return p.size() - 4 - 8;
  }

  static void put_u32_at(std::vector<std::uint8_t>& p, std::size_t off,
                         std::uint32_t value) {
    p[off] = static_cast<std::uint8_t>(value >> 24);
    p[off + 1] = static_cast<std::uint8_t>(value >> 16);
    p[off + 2] = static_cast<std::uint8_t>(value >> 8);
    p[off + 3] = static_cast<std::uint8_t>(value);
  }

  // Frame `payload` as a CRC-valid kEpoch block in a fresh archive file.
  void write_archive_with_payload(const std::vector<std::uint8_t>& payload) {
    std::vector<std::uint8_t> file = encode_file_header();
    append_block(file, BlockType::kEpoch, payload);
    ASSERT_TRUE(util::write_file_atomic(
        path_, std::span<const std::uint8_t>(file)));
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

TEST_F(ArchiveCorruptTest, ValidPartsRejectsInvariantViolations) {
  EXPECT_TRUE(TopFlowSketch::valid_parts(4, {}));
  EXPECT_TRUE(TopFlowSketch::valid_parts(0, {}));  // Empty is always fine.
  EXPECT_TRUE(TopFlowSketch::valid_parts(2, {{"a", 10, 3}}));
  EXPECT_FALSE(TopFlowSketch::valid_parts(0, {{"a", 10, 3}}));
  EXPECT_FALSE(
      TopFlowSketch::valid_parts(1, {{"a", 10, 3}, {"b", 5, 0}}));
  EXPECT_FALSE(TopFlowSketch::valid_parts(2, {{"a", 3, 10}}));  // err > cnt.
}

TEST_F(ArchiveCorruptTest, FromPartsClampsCapacityDefensively) {
  // Even if a caller bypasses validation, the sketch never holds more
  // entries than its capacity claims (eviction math would corrupt).
  std::vector<TopFlowSketch::Entry> entries = {{"a", 10, 0}, {"b", 5, 0}};
  const TopFlowSketch s = TopFlowSketch::from_parts(0, 0, std::move(entries));
  EXPECT_GE(s.capacity(), s.entries().size());
}

TEST_F(ArchiveCorruptTest, EntriesAboveCapacityRejectedAtDecode) {
  std::vector<std::uint8_t> payload = encode_record(sketch_record());
  EpochRecord out;
  ASSERT_TRUE(decode_record(payload, &out));  // Sanity: untampered decodes.

  put_u32_at(payload, capacity_offset(payload), 1);  // 3 entries, cap 1.
  EXPECT_FALSE(decode_record(payload, &out));

  put_u32_at(payload, capacity_offset(payload), 0);  // 3 entries, cap 0.
  EXPECT_FALSE(decode_record(payload, &out));
}

TEST_F(ArchiveCorruptTest, DuplicateSketchKeysRejected) {
  // Insert and merge keep one entry per key. A wire sketch listing a key
  // twice would survive a merge as two entries (top() lists the flow
  // twice), so it is corrupt like any other invariant violation.
  EXPECT_FALSE(
      TopFlowSketch::valid_parts(4, {{"x", 50, 0}, {"x", 40, 0}}));
  EXPECT_FALSE(TopFlowSketch::valid_parts(
      4, {{"x", 50, 0}, {"y", 45, 0}, {"x", 40, 0}}));

  // Keys whose hashes share their low bits pile into one probe run; the
  // answer must not depend on how keys hash.
  std::vector<TopFlowSketch::Entry> colliding;
  for (int i = 0; colliding.size() < 10; ++i) {
    const std::string key = "k" + std::to_string(i);
    if ((std::hash<std::string_view>{}(key) & 31) == 0) {
      colliding.push_back({key, 10, 0});
    }
  }
  EXPECT_TRUE(TopFlowSketch::valid_parts(16, colliding));
  colliding.push_back(colliding.front());
  EXPECT_FALSE(TopFlowSketch::valid_parts(16, colliding));

  // Larger than any default sketch.
  std::vector<TopFlowSketch::Entry> many;
  for (int i = 0; i < 600; ++i) many.push_back({"f" + std::to_string(i), 1, 0});
  EXPECT_TRUE(TopFlowSketch::valid_parts(600, many));
  many.back().key = "f0";
  EXPECT_FALSE(TopFlowSketch::valid_parts(600, many));

  // Rename the second entry ("bb") to the first entry's key ("aa"): the
  // payload still frames, checksums and decodes field by field.
  std::vector<std::uint8_t> payload = encode_record(sketch_record());
  const std::size_t first_key = capacity_offset(payload) + 4 + 8 + 4 + 4;
  const std::size_t second_key = first_key + 2 + 8 + 8 + 4;
  ASSERT_EQ(payload[first_key], 'a');
  ASSERT_EQ(payload[second_key], 'b');
  payload[second_key] = 'a';
  payload[second_key + 1] = 'a';
  EpochRecord out;
  EXPECT_FALSE(decode_record(payload, &out));

  write_archive_with_payload(payload);
  ArchiveReader reader;
  ASSERT_EQ(reader.open(path_), OpenError::kNone);
  EXPECT_TRUE(reader.records().empty());
  EXPECT_EQ(reader.corrupt_blocks(), 1u);
}

TEST_F(ArchiveCorruptTest, ErrorAboveCountRejectedAtDecode) {
  std::vector<std::uint8_t> payload = encode_record(sketch_record());
  const std::size_t off = last_error_offset(payload);
  for (std::size_t i = 0; i < 8; ++i) payload[off + i] = 0xFF;
  EpochRecord out;
  EXPECT_FALSE(decode_record(payload, &out));
}

TEST_F(ArchiveCorruptTest, HostileSketchInFileCountsAsCorruptBlock) {
  // The block frames and checksums correctly — only the decoded sketch is
  // hostile. The reader must skip it and count it, same as a CRC failure.
  std::vector<std::uint8_t> payload = encode_record(sketch_record());
  put_u32_at(payload, capacity_offset(payload), 0);
  write_archive_with_payload(payload);

  const std::uint64_t corrupt_before =
      counter_value("patchwork_archive_corrupt_blocks_total");
  ArchiveReader reader;
  ASSERT_EQ(reader.open(path_), OpenError::kNone);
  EXPECT_TRUE(reader.records().empty());
  EXPECT_EQ(reader.corrupt_blocks(), 1u);
  EXPECT_EQ(counter_value("patchwork_archive_corrupt_blocks_total"),
            corrupt_before + 1);
}

TEST_F(ArchiveCorruptTest, AbsurdSupersedeMarkerCountsRejected) {
  // A marker claiming 2^32-1 commits must fail the bounds check instead of
  // allocating; same for a commit claiming an absurd replaced list.
  std::vector<std::uint8_t> huge;
  util::put_be32(huge, 0xFFFFFFFFu);
  SupersedeMarker marker;
  EXPECT_FALSE(decode_supersede_marker(huge, &marker));

  SupersedeMarker one;
  one.commits.push_back({{"x", 1, 0, 1}, {}});
  std::vector<std::uint8_t> payload = encode_supersede_marker(one);
  // The replaced-count field is the last u32; inflate it.
  const std::size_t off = payload.size() - 4;
  payload[off] = payload[off + 1] = payload[off + 2] = payload[off + 3] = 0xFF;
  EXPECT_FALSE(decode_supersede_marker(payload, &marker));

  // A hostile marker inside a file is skipped and counted, not fatal.
  std::vector<std::uint8_t> file = encode_file_header();
  append_block(file, BlockType::kSupersede, huge);
  ASSERT_TRUE(util::write_file_atomic(
      path_, std::span<const std::uint8_t>(file)));
  ArchiveReader reader;
  ASSERT_EQ(reader.open(path_), OpenError::kNone);
  EXPECT_EQ(reader.corrupt_blocks(), 1u);
}

TEST_F(ArchiveCorruptTest, DuplicatedEpochBlockIsCountedOnce) {
  // Regression: a block written twice was served as two live records, the
  // compaction's marker retired only one of them, and every query counted
  // that epoch twice beside the rollup covering it while the open reported
  // a clean file.
  {
    ArchiveWriter writer;
    ASSERT_EQ(writer.open(path_), OpenError::kNone);
    for (std::uint64_t n = 0; n < 6; ++n) {
      EpochRecord r;
      r.label = "week" + std::to_string(n);
      r.start_nanos = 100 * n;
      r.frames = 10;
      ASSERT_TRUE(writer.append(r));
    }
  }
  CompactionOptions options;
  options.storage_budget_bytes = 1;  // Fold all six into one rollup.
  ASSERT_TRUE(compact_archive(path_, options).ok());
  ArchiveReader intact;
  ASSERT_EQ(intact.open(path_), OpenError::kNone);
  ASSERT_EQ(intact.records().size(), 1u);
  EXPECT_EQ(intact.records().front().label, "week0..week5");

  // Copy week3's block (the fourth) in right after itself, before the
  // marker that supersedes it.
  std::vector<std::uint8_t> file =
      util::read_file_bytes(path_, kMaxArchiveBytes).value_or(
          std::vector<std::uint8_t>{});
  std::size_t week3 = kFileHeaderSize;
  for (int b = 0; b < 3; ++b) {
    week3 += kBlockHeaderSize + util::get_be32(file, week3);
  }
  const std::size_t end = week3 + kBlockHeaderSize + util::get_be32(file, week3);
  const std::vector<std::uint8_t> copy(
      file.begin() + static_cast<std::ptrdiff_t>(week3),
      file.begin() + static_cast<std::ptrdiff_t>(end));
  file.insert(file.begin() + static_cast<std::ptrdiff_t>(end), copy.begin(),
              copy.end());
  ASSERT_TRUE(util::write_file_atomic(
      path_, std::span<const std::uint8_t>(file)));

  OpenStatus status;
  const ArchiveQuery query =
      ArchiveQuery::from_file(path_, QueryWindow{}, &status);
  EXPECT_EQ(query.records(), intact.records());
  EXPECT_EQ(query.totals().frames, 60u);
  EXPECT_EQ(status.corrupt_blocks, 1u);
  EXPECT_FALSE(status.clean());

  // The copy is garbage: GC sheds it and the file opens clean.
  ASSERT_TRUE(gc_archive(path_).changed);
  ArchiveReader collected;
  ASSERT_EQ(collected.open(path_), OpenError::kNone);
  EXPECT_EQ(collected.records(), intact.records());
  EXPECT_EQ(collected.corrupt_blocks(), 0u);
  EXPECT_EQ(collected.garbage_bytes(), 0u);
}

class SupersededDamageTest : public ArchiveCorruptTest {
 protected:
  static EpochRecord raw(std::uint64_t n) {
    EpochRecord r;
    r.label = "e" + std::to_string(n);
    r.first_epoch = r.last_epoch = n;
    r.start_nanos = 100 * n;
    r.frames = 10 + n;
    r.manifest_json = "{}";
    return r;
  }

  // The record's payload with its manifest length pointing past the end:
  // it frames, checksums and reads up to its head, then fails the decode.
  static std::vector<std::uint8_t> damaged_past_head(const EpochRecord& r) {
    std::vector<std::uint8_t> payload = encode_record(r);
    put_u32_at(payload, payload.size() - 4 - r.manifest_json.size(), 0xFFFF);
    RecordHead head;
    EpochRecord out;
    EXPECT_TRUE(decode_record_head(payload, kPayloadVersion, &head));
    EXPECT_FALSE(decode_record(payload, &out));
    return payload;
  }

  // Epochs 0 and 1, a pending rollup of both, and the marker committing it.
  void write_commit(const std::vector<std::uint8_t>& e0,
                    const std::vector<std::uint8_t>& pending) {
    SupersedeMarker marker;
    marker.commits.push_back(
        {record_ident(rollup_), {record_ident(raw(0)), record_ident(raw(1))}});
    std::vector<std::uint8_t> file = encode_file_header();
    append_block(file, BlockType::kEpoch, e0);
    append_block(file, BlockType::kEpoch, encode_record(raw(1)));
    append_block(file, BlockType::kPendingRollup, pending);
    append_block(file, BlockType::kSupersede, encode_supersede_marker(marker));
    ASSERT_TRUE(util::write_file_atomic(
        path_, std::span<const std::uint8_t>(file)));
  }

  EpochRecord rollup_ = [] {
    EpochRecord r = raw(0);
    r.merge_from(raw(1));
    return r;
  }();
};

TEST_F(SupersededDamageTest, UndecodableSupersededEpochIsGarbageNotCorrupt) {
  // Nothing reads a superseded record past its head, so damage beyond the
  // head is not counted; the block is garbage, and GC sheds it.
  write_commit(damaged_past_head(raw(0)), encode_record(rollup_));
  ArchiveReader reader;
  ASSERT_EQ(reader.open(path_), OpenError::kNone);
  EXPECT_EQ(reader.records(), std::vector<EpochRecord>{rollup_});
  EXPECT_EQ(reader.corrupt_blocks(), 0u);
  EXPECT_EQ(reader.superseded_records(), 2u);
  EXPECT_GT(reader.garbage_bytes(), 0u);

  ASSERT_TRUE(gc_archive(path_).changed);
  ArchiveReader clean;
  ASSERT_EQ(clean.open(path_), OpenError::kNone);
  EXPECT_EQ(clean.records(), std::vector<EpochRecord>{rollup_});
  EXPECT_EQ(clean.garbage_bytes(), 0u);
}

TEST_F(SupersededDamageTest, IntactTwinOfUndecodableRecordIsServed) {
  // A damaged block does not hide a later intact block of the same record:
  // the damaged one fails the strict decode and is dropped, and the intact
  // one is served.
  std::vector<std::uint8_t> file = encode_file_header();
  append_block(file, BlockType::kEpoch, encode_record(raw(0)));
  append_block(file, BlockType::kEpoch, damaged_past_head(raw(1)));
  append_block(file, BlockType::kEpoch, encode_record(raw(1)));
  ASSERT_TRUE(util::write_file_atomic(
      path_, std::span<const std::uint8_t>(file)));
  ArchiveReader reader;
  ASSERT_EQ(reader.open(path_), OpenError::kNone);
  EXPECT_EQ(reader.records(), (std::vector<EpochRecord>{raw(0), raw(1)}));
  EXPECT_EQ(reader.corrupt_blocks(), 1u);  // The damaged copy alone.
}

TEST_F(SupersededDamageTest, CopyOfRetiredRecordIsCountedOnce) {
  // Regression: a copy of e0 written after the marker that retired it came
  // back as a live record beside the rollup covering it, so the totals
  // counted e0 twice while the open reported a clean file.
  write_commit(encode_record(raw(0)), encode_record(rollup_));
  std::vector<std::uint8_t> copy;
  append_block(copy, BlockType::kEpoch, encode_record(raw(0)));
  ASSERT_TRUE(util::append_file(path_, copy));

  OpenStatus status;
  const ArchiveQuery query =
      ArchiveQuery::from_file(path_, QueryWindow{}, &status);
  EXPECT_EQ(query.records(), std::vector<EpochRecord>{rollup_});
  EXPECT_EQ(query.totals().frames, 21u);
  EXPECT_EQ(status.corrupt_blocks, 1u);
  EXPECT_FALSE(status.clean());
}

TEST_F(SupersededDamageTest, DamagedCommittedRollupLeavesReplacedRecordsLive) {
  // The rollup is live once committed, so it is decoded in full, fails,
  // and is counted; its commit then retires nothing.
  write_commit(encode_record(raw(0)), damaged_past_head(rollup_));
  ArchiveReader reader;
  ASSERT_EQ(reader.open(path_), OpenError::kNone);
  EXPECT_EQ(reader.records(), (std::vector<EpochRecord>{raw(0), raw(1)}));
  EXPECT_EQ(reader.corrupt_blocks(), 1u);
  EXPECT_EQ(reader.superseded_records(), 0u);
  EXPECT_EQ(reader.orphan_pending(), 0u);
}

}  // namespace
}  // namespace patchwork::archive
