#include "archive/reader.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <span>

#include "obs/metrics.hpp"
#include "util/byte_io.hpp"
#include "util/crc32.hpp"
#include "util/file_io.hpp"

namespace patchwork::archive {

std::string to_string(OpenError error) {
  switch (error) {
    case OpenError::kNone:
      return "ok";
    case OpenError::kIo:
      return "io error";
    case OpenError::kBadMagic:
      return "not a patchwork archive (bad magic)";
    case OpenError::kVersionTooNew:
      return "archive format newer than this build";
  }
  return "unknown";
}

namespace {

/// One framed, CRC-verified block, not yet decoded. `payload` views the
/// file buffer, which ArchiveReader::open keeps alive through assembly.
struct ScannedBlock {
  BlockType type = BlockType::kEpoch;
  std::uint8_t payload_version = 0;
  std::span<const std::uint8_t> payload;
};

struct ScanResult {
  OpenError error = OpenError::kNone;
  std::uint16_t format_version = 0;
  std::vector<ScannedBlock> blocks;  ///< File order, CRC-verified.
  /// Prefix length ending at the last completely framed block — the safe
  /// truncation point when damaged_tail is set.
  std::uint64_t valid_bytes = 0;
  std::uint64_t corrupt_blocks = 0;  ///< Framed but CRC-mismatched, skipped.
  bool damaged_tail = false;

  bool ok() const { return error == OpenError::kNone; }
};

ScanResult scan_archive_bytes(std::span<const std::uint8_t> bytes) {
  ScanResult result;
  if (bytes.size() < kFileHeaderSize ||
      !std::equal(kMagic.begin(), kMagic.end(), bytes.begin())) {
    result.error = OpenError::kBadMagic;
    return result;
  }
  result.format_version = util::get_be16(bytes, 4);
  if (result.format_version > kFormatVersion) {
    result.error = OpenError::kVersionTooNew;
    return result;
  }

  std::size_t off = kFileHeaderSize;
  result.valid_bytes = off;
  while (off < bytes.size()) {
    if (!util::fits(bytes, off, kBlockHeaderSize)) {
      result.damaged_tail = true;  // Header cut short by a crash.
      break;
    }
    const std::uint64_t len = util::get_be32(bytes, off);
    if (len > kMaxBlockPayload) {
      // A corrupted length field cannot frame the block, so nothing after
      // this point can be trusted to start on a block boundary.
      result.damaged_tail = true;
      break;
    }
    if (!util::fits(bytes, off + kBlockHeaderSize, len)) {
      result.damaged_tail = true;  // Payload cut short by a crash.
      break;
    }
    const std::uint32_t stored_crc = util::get_be32(bytes, off + 8);
    const auto payload = bytes.subspan(off + kBlockHeaderSize, len);
    // CRC covers type..reserved (4 bytes) then the payload; the two ranges
    // are not contiguous on disk, so chain the incremental form.
    const std::uint32_t crc =
        util::crc32(payload, util::crc32(bytes.subspan(off + 4, 4)));
    if (crc != stored_crc) {
      ++result.corrupt_blocks;
    } else {
      result.blocks.push_back(
          {static_cast<BlockType>(util::get_u8(bytes, off + 4)),
           util::get_u8(bytes, off + 5), payload});
    }
    off += kBlockHeaderSize + len;
    result.valid_bytes = off;
  }
  return result;
}

/// What assembly reads of one scanned block: a record's head, or a marker.
struct Entry {
  const ScannedBlock* block = nullptr;  ///< One of the scanned blocks.
  BlockType type = BlockType::kEpoch;
  RecordHead head;         ///< Record blocks.
  SupersedeMarker marker;  ///< kSupersede.
};

/// Orders record blocks by payload version and bytes, so a block written
/// twice compares equal to its first copy.
struct PayloadLess {
  bool operator()(const ScannedBlock* a, const ScannedBlock* b) const {
    if (a->payload_version != b->payload_version) {
      return a->payload_version < b->payload_version;
    }
    return std::ranges::lexicographical_compare(a->payload, b->payload);
  }
};

/// The entries that back logical records once the markers are applied.
struct Placement {
  std::vector<std::size_t> live;  ///< Entry indices, logical order.
  std::uint64_t superseded_records = 0;
  std::uint64_t orphan_pending = 0;
  std::uint64_t duplicates = 0;  ///< Copies of a record block placed before.
};

/// Where a committed rollup lands when none of its superseded records are
/// present (a replayed marker on an already-GC'd file): keep the sequence
/// chronological so the oldest-first fold convention survives.
std::size_t chronological_position(const std::vector<Entry>& entries,
                                   const std::vector<std::size_t>& live,
                                   const RecordHead& head) {
  const auto less = [](const RecordHead& a, const RecordHead& b) {
    if (a.start_nanos != b.start_nanos) return a.start_nanos < b.start_nanos;
    return a.first_epoch < b.first_epoch;
  };
  std::size_t pos = live.size();
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (less(head, entries[live[i]].head)) {
      pos = i;
      break;
    }
  }
  return pos;
}

/// Applies the markers to the record heads in file order, leaving out the
/// entries flagged in `dropped` and counting each later copy of a record
/// block as a duplicate.
Placement place_records(const std::vector<Entry>& entries,
                        const std::vector<bool>& dropped) {
  Placement out;
  std::vector<std::size_t>& live = out.live;
  // Every record block placed so far, live or since retired.
  std::set<const ScannedBlock*, PayloadLess> placed;
  std::vector<std::size_t> pending;
  const auto ident = [&](std::size_t e) {
    return record_ident(entries[e].head);
  };
  for (std::size_t e = 0; e < entries.size(); ++e) {
    if (dropped[e]) continue;
    switch (entries[e].type) {
      case BlockType::kEpoch:
      case BlockType::kRollup:
        // A block byte-identical to one placed before is a copy (a block
        // written twice): the first stays, live or retired, and the copy is
        // damage. Distinct records that share an identity both stay.
        if (!placed.insert(entries[e].block).second) {
          ++out.duplicates;
          break;
        }
        live.push_back(e);
        break;
      case BlockType::kPendingRollup:
        pending.push_back(e);  // Invisible until committed.
        break;
      case BlockType::kSupersede:
        for (const SupersedeMarker::Commit& commit : entries[e].marker.commits) {
          // Activate the most recent matching pending rollup. A commit
          // with no pending match is a replay whose work is already done
          // (or whose rollup block was lost to corruption) — ignore it.
          std::size_t take = pending.size();
          for (std::size_t i = pending.size(); i-- > 0;) {
            if (ident(pending[i]) == commit.rollup) {
              take = i;
              break;
            }
          }
          if (take == pending.size()) continue;
          const std::size_t rollup = pending[take];
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(take));

          // Retire the records it replaces — plus any earlier record with
          // the rollup's own identity, which makes a replayed commit
          // idempotent instead of duplicating the rollup.
          std::vector<std::size_t> retired;
          const auto retire_last_match = [&](const RecordIdent& wanted) {
            for (std::size_t i = live.size(); i-- > 0;) {
              if (ident(live[i]) == wanted &&
                  std::find(retired.begin(), retired.end(), i) ==
                      retired.end()) {
                retired.push_back(i);
                return;
              }
            }
          };
          retire_last_match(commit.rollup);
          for (const RecordIdent& replaced : commit.replaced) {
            retire_last_match(replaced);
          }
          std::sort(retired.begin(), retired.end());
          const std::size_t insert_at =
              retired.empty()
                  ? chronological_position(entries, live, entries[rollup].head)
                  : retired.front();
          for (std::size_t i = retired.size(); i-- > 0;) {
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(retired[i]));
            ++out.superseded_records;
          }
          live.insert(live.begin() + static_cast<std::ptrdiff_t>(insert_at),
                      rollup);
          placed.insert(entries[rollup].block);
        }
        break;
    }
  }
  out.orphan_pending = pending.size();
  return out;
}

/// The logical view of a scanned block sequence after supersede markers
/// are applied (see the header comment).
struct AssembledArchive {
  std::vector<EpochRecord> records;  ///< Logical, oldest-first fold order.
  /// Bytes (header + payload) of the blocks that produced `records`.
  std::uint64_t live_block_bytes = 0;
  std::uint64_t superseded_records = 0;  ///< Retired by supersede markers.
  std::uint64_t orphan_pending = 0;   ///< Pending rollups with no marker.
  /// CRC-valid, but a marker, record head or live record won't parse.
  std::uint64_t undecodable_blocks = 0;
  std::uint64_t duplicate_records = 0;  ///< Copies of a placed record block.
  std::uint64_t skipped_newer = 0;    ///< Newer payload version or type.
};

AssembledArchive assemble_blocks(const std::vector<ScannedBlock>& blocks) {
  AssembledArchive out;
  std::vector<Entry> entries;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const ScannedBlock& block = blocks[b];
    if (block.payload_version > kPayloadVersion) {
      ++out.skipped_newer;  // Written by a newer build; not ours to guess at.
      continue;
    }
    Entry entry{&block, block.type, {}, {}};
    bool decoded = false;
    switch (block.type) {
      case BlockType::kEpoch:
      case BlockType::kRollup:
      case BlockType::kPendingRollup:
        decoded = decode_record_head(block.payload, block.payload_version,
                                     &entry.head);
        break;
      case BlockType::kSupersede:
        decoded = decode_supersede_marker(block.payload, &entry.marker);
        break;
      default:
        ++out.skipped_newer;  // Unknown block type from a future build.
        continue;
    }
    if (!decoded) {
      ++out.undecodable_blocks;  // CRC passed, payload doesn't parse.
      continue;
    }
    entries.push_back(std::move(entry));
  }

  // Only the records that survive placement are decoded in full. One that
  // fails is dropped and placement reruns without it, exactly as if its
  // block were absent, so the commit of a damaged rollup retires nothing.
  std::vector<bool> dropped(entries.size(), false);
  std::map<std::size_t, EpochRecord> decoded;
  Placement placement;
  for (bool settled = false; !settled;) {
    placement = place_records(entries, dropped);
    settled = true;
    for (std::size_t e : placement.live) {
      if (decoded.contains(e)) continue;
      const ScannedBlock& block = *entries[e].block;
      EpochRecord record;
      if (decode_record(block.payload, block.payload_version, &record)) {
        decoded.emplace(e, std::move(record));
      } else {
        dropped[e] = true;
        ++out.undecodable_blocks;
        settled = false;
      }
    }
  }

  out.superseded_records = placement.superseded_records;
  out.orphan_pending = placement.orphan_pending;
  out.duplicate_records = placement.duplicates;
  out.records.reserve(placement.live.size());
  for (std::size_t e : placement.live) {
    out.live_block_bytes +=
        kBlockHeaderSize + entries[e].block->payload.size();
    out.records.push_back(std::move(decoded.at(e)));
  }
  return out;
}

}  // namespace

OpenError ArchiveReader::open(const std::string& path) {
  auto& corrupt_total = obs::registry().counter(
      "patchwork_archive_corrupt_blocks_total",
      "Archive blocks skipped for CRC mismatch or undecodable payload");
  auto& tail_total = obs::registry().counter(
      "patchwork_archive_damaged_tails_total",
      "Archive opens that found a truncated or unframeable tail");
  auto& read_total = obs::registry().counter(
      "patchwork_archive_records_read_total",
      "Epoch/rollup records successfully decoded from archives");

  records_.clear();
  valid_bytes_ = 0;
  corrupt_blocks_ = 0;
  skipped_newer_ = 0;
  superseded_records_ = 0;
  orphan_pending_ = 0;
  live_bytes_ = 0;
  damaged_tail_ = false;

  const auto bytes = util::read_file_bytes(path, kMaxArchiveBytes);
  if (!bytes.has_value()) return OpenError::kIo;
  // The scanned blocks view *bytes, which outlives the assembly.
  const ScanResult scan = scan_archive_bytes(*bytes);
  if (!scan.ok()) return scan.error;

  valid_bytes_ = scan.valid_bytes;
  damaged_tail_ = scan.damaged_tail;

  AssembledArchive assembled = assemble_blocks(scan.blocks);
  records_ = std::move(assembled.records);
  corrupt_blocks_ = scan.corrupt_blocks + assembled.undecodable_blocks +
                    assembled.duplicate_records;
  skipped_newer_ = assembled.skipped_newer;
  superseded_records_ = assembled.superseded_records;
  orphan_pending_ = assembled.orphan_pending;
  live_bytes_ = assembled.live_block_bytes;

  if (corrupt_blocks_ > 0) corrupt_total.add(corrupt_blocks_);
  if (damaged_tail_) tail_total.add(1);
  read_total.add(records_.size());
  return OpenError::kNone;
}

std::uint64_t ArchiveReader::garbage_bytes() const {
  const std::uint64_t accounted = kFileHeaderSize + live_bytes_;
  return valid_bytes_ > accounted ? valid_bytes_ - accounted : 0;
}

}  // namespace patchwork::archive
