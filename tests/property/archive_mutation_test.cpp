// Seeded mutation harness for the archive open path (block scan, record
// assembly and decode).
//
// A golden archive holds appended epochs, one incremental compaction
// (pending rollups plus their supersede marker) and one orphan pending
// rollup whose marker never landed. Each case damages it one of seven ways:
// bit flips, truncation, a corrupted block length, a duplicated block, two
// blocks swapped, an extra marker naming absent records, and payload damage
// with the block's CRC recomputed (the one mutation that reaches the record
// decoder). Built with the asan preset, a crash or a UB report fails the
// case. In every build the open must classify the damage, a writer open
// must cut a damaged tail away, and GC must leave a clean file that serves
// the same records. Every draw comes from a seeded util::Rng, so a failure
// replays exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "archive/compactor.hpp"
#include "archive/format.hpp"
#include "archive/reader.hpp"
#include "archive/record.hpp"
#include "archive/writer.hpp"
#include "testing/temp_dir.hpp"
#include "util/byte_io.hpp"
#include "util/crc32.hpp"
#include "util/file_io.hpp"
#include "util/rng.hpp"

namespace patchwork::archive {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// Offsets of the payload length, the type byte and the CRC in a block.
constexpr std::size_t kLenAt = 0;
constexpr std::size_t kTypeAt = 4;
constexpr std::size_t kCrcAt = 8;

void store_be32(Bytes& bytes, std::size_t off, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[off + i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
  }
}

EpochRecord epoch(std::uint64_t n) {
  EpochRecord r;
  r.label = "week" + std::to_string(n);
  r.start_nanos = 1000 + n * 100;
  r.duration_nanos = 100;
  r.offered_bps_sum = 1e6 * static_cast<double>(n + 1);
  r.samples = 2;
  r.frames = 1000 + n;
  r.pcap_bytes = 64 * (1000 + n);
  r.frame_sizes = HistCounts({64, 128, 1519, 9217});
  r.frame_sizes.add(100, n + 1);
  r.frame_sizes.add(1500, 2 * n + 1);
  r.header_occurrence.frames = r.frames;
  r.header_occurrence.occurrences = {r.frames, n, 3};
  r.tcp_control = {r.frames / 2, n, 1, 0, 7};
  r.tagging = {r.frames, n, 2, 0, r.frames - n - 2};
  r.flow_snippets = 10 + n;
  r.largest_flow_bytes = 5000 * (n + 1);
  for (const char* site : {"DALL", "STAR"}) {
    SiteEpochLoad load;
    load.site = site;
    load.samples = 1;
    load.frames = 500 + n;
    load.wire_bytes = 32000 + n;
    load.frame_sizes = HistCounts({64, 1519});
    load.frame_sizes.add(80, n + 3);
    r.site_loads.push_back(std::move(load));
  }
  TopFlowSketch::Builder sketch(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    sketch.insert("flow" + std::to_string((n + i) % 9), 100 * (n + 1));
  }
  r.top_flows = std::move(sketch).build();
  r.manifest_json = "{\"epoch\": " + std::to_string(n) + "}";
  return r;
}

/// Six appended epochs, an incremental compaction that commits rollups of
/// the oldest ones, and a pending rollup of the newest three with no marker.
Bytes golden_archive(const std::string& path) {
  constexpr std::uint64_t kEpochs = 6;
  {
    ArchiveWriter writer;
    EXPECT_EQ(writer.open(path), OpenError::kNone);
    for (std::uint64_t i = 0; i < kEpochs; ++i) {
      EXPECT_TRUE(writer.append(epoch(i)));
    }
  }
  CompactionOptions options;
  options.storage_budget_bytes =
      util::file_size_bytes(path).value_or(0) * 2 / 3;
  options.group_size = 2;
  const CompactionResult compacted = compact_archive(path, options);
  EXPECT_TRUE(compacted.ok());
  EXPECT_GT(compacted.rollups_committed, 0u);

  EpochRecord orphan = epoch(kEpochs - 3);
  orphan.first_epoch = orphan.last_epoch = kEpochs - 3;
  for (std::uint64_t i = kEpochs - 2; i < kEpochs; ++i) {
    EpochRecord next = epoch(i);
    next.first_epoch = next.last_epoch = i;
    orphan.merge_from(next);
  }
  Bytes block;
  append_block(block, BlockType::kPendingRollup, encode_record(orphan));
  EXPECT_TRUE(util::append_file(path, block));
  return util::read_file_bytes(path, kMaxArchiveBytes).value_or(Bytes{});
}

/// One framed block of a file: where it starts and how long it is.
struct Block {
  std::size_t offset = 0;
  std::size_t size = 0;
};

/// The complete blocks of `file` in order, following the length fields as
/// the scan does and stopping at the first block that does not fit.
std::vector<Block> blocks_of(const Bytes& file) {
  std::vector<Block> out;
  std::size_t off = kFileHeaderSize;
  while (util::fits(file, off, kBlockHeaderSize)) {
    const std::uint64_t len = util::get_be32(file, off + kLenAt);
    if (len > kMaxBlockPayload ||
        !util::fits(file, off + kBlockHeaderSize, len)) {
      break;
    }
    out.push_back({off, kBlockHeaderSize + static_cast<std::size_t>(len)});
    off += out.back().size;
  }
  return out;
}

std::uint32_t block_crc(const Bytes& file, const Block& b) {
  const std::span<const std::uint8_t> all(file);
  const std::uint32_t head = util::crc32(all.subspan(b.offset + kTypeAt, 4));
  return util::crc32(all.subspan(b.offset + kBlockHeaderSize,
                                 b.size - kBlockHeaderSize),
                     head);
}

/// Whether `file` frames a block that passes its CRC, carries a record of
/// a version this build reads, and still fails the strict record decode.
bool has_undecodable_record(const Bytes& file) {
  for (const Block& b : blocks_of(file)) {
    if (block_crc(file, b) != util::get_be32(file, b.offset + kCrcAt)) {
      continue;
    }
    const auto type = static_cast<BlockType>(file[b.offset + kTypeAt]);
    const std::uint8_t version = file[b.offset + kTypeAt + 1];
    if (version > kPayloadVersion ||
        (type != BlockType::kEpoch && type != BlockType::kRollup &&
         type != BlockType::kPendingRollup)) {
      continue;
    }
    EpochRecord record;
    const std::span<const std::uint8_t> payload(
        file.data() + b.offset + kBlockHeaderSize, b.size - kBlockHeaderSize);
    if (!decode_record(payload, version, &record)) return true;
  }
  return false;
}

Block pick(const std::vector<Block>& blocks, util::Rng& rng) {
  return blocks[rng.uniform_u64(0, blocks.size() - 1)];
}

/// A random block boundary: the end of the header or of any block.
std::size_t pick_boundary(const std::vector<Block>& blocks, util::Rng& rng) {
  const std::size_t i = rng.uniform_u64(0, blocks.size());
  return i == 0 ? kFileHeaderSize
                : blocks[i - 1].offset + blocks[i - 1].size;
}

void flip_bits(Bytes& file, util::Rng& rng) {
  const std::uint64_t flips = rng.uniform_u64(1, 16);
  for (std::uint64_t i = 0; i < flips; ++i) {
    const std::uint64_t bit = rng.uniform_u64(0, file.size() * 8 - 1);
    file[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

void truncate(Bytes& file, util::Rng& rng) {
  file.resize(rng.uniform_u64(0, file.size() - 1));
}

/// Overwrite one block's length: nudged up or down, zeroed, past
/// kMaxBlockPayload, or replaced by any 32-bit value.
void corrupt_length(Bytes& file, util::Rng& rng) {
  const Block b = pick(blocks_of(file), rng);
  const std::uint32_t old = util::get_be32(file, b.offset + kLenAt);
  const auto delta = static_cast<std::uint32_t>(rng.uniform_u64(1, 64));
  std::uint32_t value = 0;
  switch (rng.uniform_u64(0, 4)) {
    case 0: value = old + delta; break;
    case 1: value = old - std::min(old, delta); break;
    case 2: value = 0; break;
    case 3: value = static_cast<std::uint32_t>(kMaxBlockPayload) + 1; break;
    default: value = static_cast<std::uint32_t>(rng.bits()); break;
  }
  store_be32(file, b.offset + kLenAt, value);
}

/// Insert a copy of one block at a block boundary.
void duplicate_block(Bytes& file, util::Rng& rng) {
  const std::vector<Block> blocks = blocks_of(file);
  const Block b = pick(blocks, rng);
  const Bytes copy(file.begin() + static_cast<std::ptrdiff_t>(b.offset),
                   file.begin() + static_cast<std::ptrdiff_t>(b.offset + b.size));
  const std::size_t at = pick_boundary(blocks, rng);
  file.insert(file.begin() + static_cast<std::ptrdiff_t>(at), copy.begin(),
              copy.end());
}

/// Exchange two distinct blocks.
void swap_blocks(Bytes& file, util::Rng& rng) {
  const std::vector<Block> blocks = blocks_of(file);
  std::size_t i = rng.uniform_u64(0, blocks.size() - 1);
  std::size_t j = rng.uniform_u64(0, blocks.size() - 2);
  if (j >= i) ++j;
  if (i > j) std::swap(i, j);
  const auto at = [&](std::size_t off) {
    return file.begin() + static_cast<std::ptrdiff_t>(off);
  };
  Bytes out(file.begin(), at(blocks[i].offset));
  out.insert(out.end(), at(blocks[j].offset),
             at(blocks[j].offset + blocks[j].size));
  out.insert(out.end(), at(blocks[i].offset + blocks[i].size),
             at(blocks[j].offset));
  out.insert(out.end(), at(blocks[i].offset),
             at(blocks[i].offset + blocks[i].size));
  out.insert(out.end(), at(blocks[j].offset + blocks[j].size), file.end());
  file = std::move(out);
}

/// An identity no golden record has.
RecordIdent absent_ident(util::Rng& rng) {
  RecordIdent ident;
  if (rng.chance(0.5)) ident.origin = "peer" + std::to_string(rng.bits() % 4);
  ident.level = static_cast<std::uint32_t>(rng.uniform_u64(0, 3));
  ident.first_epoch = rng.uniform_u64(100, 200);
  ident.last_epoch = ident.first_epoch + rng.uniform_u64(0, 5);
  return ident;
}

/// Insert a CRC-valid marker at a block boundary whose commits name absent
/// records: each commits either the golden orphan rollup or an absent one,
/// and retires only records the archive does not hold.
void absent_marker(Bytes& file, const RecordIdent& orphan, util::Rng& rng) {
  SupersedeMarker marker;
  marker.commits.resize(rng.uniform_u64(1, 3));
  for (SupersedeMarker::Commit& commit : marker.commits) {
    commit.rollup = rng.chance(0.5) ? orphan : absent_ident(rng);
    commit.replaced.resize(rng.uniform_u64(0, 3));
    for (RecordIdent& ident : commit.replaced) ident = absent_ident(rng);
  }
  Bytes block;
  append_block(block, BlockType::kSupersede, encode_supersede_marker(marker));
  const std::size_t at = pick_boundary(blocks_of(file), rng);
  file.insert(file.begin() + static_cast<std::ptrdiff_t>(at), block.begin(),
              block.end());
}

/// Damage one block's payload (bit flips, or a run of random bytes) and
/// store the CRC of the damaged bytes, so the scan accepts the block and
/// its decoder sees the damage.
void damage_payload(Bytes& file, util::Rng& rng) {
  const Block b = pick(blocks_of(file), rng);
  const std::size_t payload = b.offset + kBlockHeaderSize;
  const std::size_t len = b.size - kBlockHeaderSize;
  if (len == 0) return;
  if (rng.chance(0.5)) {
    const std::uint64_t flips = rng.uniform_u64(1, 8);
    for (std::uint64_t i = 0; i < flips; ++i) {
      const std::uint64_t bit = rng.uniform_u64(0, len * 8 - 1);
      file[payload + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  } else {
    const std::size_t from = rng.uniform_u64(0, len - 1);
    const std::size_t run = std::min<std::size_t>(len - from,
                                                  rng.uniform_u64(1, 8));
    for (std::size_t i = 0; i < run; ++i) {
      file[payload + from + i] = static_cast<std::uint8_t>(rng.bits());
    }
  }
  store_be32(file, b.offset + kCrcAt, block_crc(file, b));
}

/// What one open reports: its error, counters and records.
struct Outcome {
  OpenError error = OpenError::kNone;
  std::uint64_t valid_bytes = 0;
  std::uint64_t corrupt_blocks = 0;
  std::uint64_t skipped_newer = 0;
  std::uint64_t superseded = 0;
  std::uint64_t orphan_pending = 0;
  std::uint64_t live_bytes = 0;
  std::uint64_t garbage_bytes = 0;
  bool damaged_tail = false;
  std::vector<EpochRecord> records;
};

Outcome open_outcome(const std::string& path) {
  ArchiveReader reader;
  Outcome out;
  out.error = reader.open(path);
  out.valid_bytes = reader.valid_bytes();
  out.corrupt_blocks = reader.corrupt_blocks();
  out.skipped_newer = reader.skipped_newer_blocks();
  out.superseded = reader.superseded_records();
  out.orphan_pending = reader.orphan_pending();
  out.live_bytes = reader.live_bytes();
  out.garbage_bytes = reader.garbage_bytes();
  out.damaged_tail = reader.damaged_tail();
  out.records = reader.take_records();
  return out;
}

/// FNV-1a over the outcome's error, counters and encoded records.
void fold_digest(std::uint64_t& h, const Outcome& o) {
  Bytes bytes;
  util::put_u8(bytes, static_cast<std::uint8_t>(o.error));
  for (std::uint64_t v : {o.valid_bytes, o.corrupt_blocks, o.skipped_newer,
                          o.superseded, o.orphan_pending, o.live_bytes,
                          o.garbage_bytes}) {
    util::put_be64(bytes, v);
  }
  util::put_u8(bytes, o.damaged_tail ? 1 : 0);
  util::put_be32(bytes, static_cast<std::uint32_t>(o.records.size()));
  for (const EpochRecord& r : o.records) {
    const Bytes encoded = encode_record(r);
    util::put_be32(bytes, static_cast<std::uint32_t>(encoded.size()));
    bytes.insert(bytes.end(), encoded.begin(), encoded.end());
  }
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
}

bool write_bytes(const std::string& path, const Bytes& bytes) {
  return util::write_file_atomic(path, std::span<const std::uint8_t>(bytes));
}

/// Open `file` as a reader, a writer and through GC, and check each against
/// the classification the format promises. Returns the reader's outcome.
Outcome check_archive(const Bytes& file,
                      const patchwork::testing::TestTempDir& tmp) {
  const std::string path = tmp.path("case.pwar");
  EXPECT_TRUE(write_bytes(path, file));
  Outcome opened = open_outcome(path);
  EXPECT_TRUE(opened.error == OpenError::kNone ||
              opened.error == OpenError::kBadMagic ||
              opened.error == OpenError::kVersionTooNew)
      << to_string(opened.error);
  EXPECT_LE(opened.valid_bytes, file.size());
  if (opened.error != OpenError::kNone) {
    EXPECT_TRUE(opened.records.empty());
    return opened;
  }
  EXPECT_LE(kFileHeaderSize + opened.live_bytes, opened.valid_bytes);

  // Crash recovery: the writer cuts a damaged tail back to the last
  // complete block, after which the file opens undamaged with the same
  // records and counters.
  const std::string written = tmp.path("writer.pwar");
  EXPECT_TRUE(write_bytes(written, file));
  ArchiveWriter writer;
  EXPECT_EQ(writer.open(written), OpenError::kNone);
  EXPECT_EQ(util::file_size_bytes(written).value_or(0),
            opened.damaged_tail ? opened.valid_bytes : file.size());
  Outcome recovered = open_outcome(written);
  EXPECT_EQ(recovered.error, OpenError::kNone);
  EXPECT_FALSE(recovered.damaged_tail);
  EXPECT_EQ(recovered.valid_bytes, opened.valid_bytes);
  EXPECT_EQ(recovered.corrupt_blocks, opened.corrupt_blocks);
  EXPECT_EQ(recovered.garbage_bytes, opened.garbage_bytes);
  EXPECT_TRUE(recovered.records == opened.records);

  // GC sheds every unaccounted byte and keeps the records.
  const std::string collected = tmp.path("gc.pwar");
  EXPECT_TRUE(write_bytes(collected, file));
  EXPECT_TRUE(gc_archive(collected).ok());
  const Outcome clean = open_outcome(collected);
  EXPECT_EQ(clean.error, OpenError::kNone);
  EXPECT_EQ(clean.corrupt_blocks, 0u);
  EXPECT_EQ(clean.skipped_newer, 0u);
  EXPECT_FALSE(clean.damaged_tail);
  EXPECT_EQ(clean.garbage_bytes, 0u);
  EXPECT_TRUE(clean.records == opened.records);
  return opened;
}

/// Per-seed pins. `intact` digests the cases in which every CRC-valid
/// record block decodes; `undecodable` the cases holding at least one that
/// passes its CRC and fails the strict decode, whose outcome may depend on
/// whether the assembler decodes blocks it then discards.
struct Pin {
  std::uint64_t seed = 0;
  std::size_t intact_cases = 0;
  std::uint64_t intact = 0;
  std::size_t undecodable_cases = 0;
  std::uint64_t undecodable = 0;
};

/// Names each case after its seed, as Seeds/DigestMutation does.
void PrintTo(const Pin& pin, std::ostream* os) { *os << pin.seed; }

class ArchiveMutation : public ::testing::TestWithParam<Pin> {};

TEST_P(ArchiveMutation, DamageIsClassifiedRecoveredAndCollected) {
  const Pin& pin = GetParam();
  patchwork::testing::TestTempDir tmp;
  const Bytes golden = golden_archive(tmp.path("golden.pwar"));
  ASSERT_FALSE(golden.empty());
  const std::vector<Block> golden_blocks = blocks_of(golden);
  ASSERT_EQ(golden_blocks.back().offset + golden_blocks.back().size,
            golden.size());

  // The golden file opens clean, with rollups committed over retired
  // epochs and the last pending rollup orphaned.
  const Outcome base = check_archive(golden, tmp);
  ASSERT_EQ(base.error, OpenError::kNone);
  EXPECT_EQ(base.corrupt_blocks, 0u);
  EXPECT_GT(base.superseded, 0u);
  EXPECT_EQ(base.orphan_pending, 1u);
  EpochRecord orphan;
  const Block& last = golden_blocks.back();
  ASSERT_TRUE(decode_record(
      std::span<const std::uint8_t>(golden).subspan(
          last.offset + kBlockHeaderSize, last.size - kBlockHeaderSize),
      &orphan));
  const RecordIdent orphan_ident = record_ident(orphan);

  util::Rng rng(pin.seed);
  std::uint64_t intact = 0xcbf29ce484222325ull;
  std::uint64_t undecodable = intact;
  std::size_t intact_cases = 0, undecodable_cases = 0;
  for (int trial = 0; trial < 700; ++trial) {
    Bytes file = golden;
    switch (trial % 7) {
      case 0: flip_bits(file, rng); break;
      case 1: truncate(file, rng); break;
      case 2: corrupt_length(file, rng); break;
      case 3: duplicate_block(file, rng); break;
      case 4: swap_blocks(file, rng); break;
      case 5: absent_marker(file, orphan_ident, rng); break;
      default: damage_payload(file, rng); break;
    }
    // Some structural damage also reaches a decoder.
    if (trial % 7 >= 3 && trial % 7 <= 5 && rng.chance(0.25)) {
      damage_payload(file, rng);
    }
    const Outcome outcome = check_archive(file, tmp);
    if (has_undecodable_record(file)) {
      fold_digest(undecodable, outcome);
      ++undecodable_cases;
    } else {
      fold_digest(intact, outcome);
      ++intact_cases;
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "seed " << pin.seed << " trial " << trial;
    }
  }
  EXPECT_EQ(intact_cases, pin.intact_cases);
  EXPECT_EQ(intact, pin.intact) << std::hex << intact;
  EXPECT_EQ(undecodable_cases, pin.undecodable_cases);
  EXPECT_EQ(undecodable, pin.undecodable) << std::hex << undecodable;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ArchiveMutation,
    ::testing::Values(
        Pin{1, 646, 0xc3cee472b1d8d442ull, 54, 0x356a73c8524137a5ull},
        Pin{42, 634, 0x047787b2f957736dull, 66, 0xe03a7f1a5624102cull},
        Pin{777, 631, 0x963fc99cc7f592e2ull, 69, 0xe746a916020d9a5bull},
        Pin{31337, 636, 0x12ddd4280dd995b7ull, 64, 0x9ad3dd259884ddb5ull}));

}  // namespace
}  // namespace patchwork::archive
