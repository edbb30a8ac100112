// Reading side of the archive: a defensive scan plus a record assembler.
//
// The scan walks the block framing and classifies damage:
//   - a complete block whose CRC fails is *skipped* (the length field still
//     frames it, so the scan resynchronizes at the next block) and counted
//     in archive_corrupt_blocks_total;
//   - an unframeable tail — header or payload running past EOF, or a length
//     field beyond kMaxBlockPayload — ends the scan; `valid_bytes` marks
//     the last byte of the final complete block so the writer can truncate
//     the damage away on its next open.
// A file-header version newer than this reader rejects cleanly
// (kVersionTooNew) instead of misparsing; so does a per-block payload
// version (those blocks are skipped and counted, the rest still load).
//
// Assembly turns the scanned blocks into the *logical* record sequence:
// incremental compaction appends rollups as kPendingRollup blocks plus a
// kSupersede marker instead of rewriting the file, so the assembler commits
// each marked rollup in place of the records it supersedes (keeping the
// oldest-first fold order) and ignores pending rollups whose marker never
// landed (a crash mid-commit). Superseded and orphaned blocks stay on disk
// as garbage until a GC rewrite; their byte total is reported so the
// compactor can decide when a rewrite pays for itself. An epoch or rollup
// block byte-identical to one placed before it (live, or since retired by
// a marker) is a copy: the first stays, the copy is counted as corrupt and
// left as garbage, so no query counts an epoch twice. Distinct records
// that share a RecordIdent (two merged inputs tagged with one origin) are
// not copies and both stay.
//
// The open does one CRC pass over the file and decodes only what it serves:
// blocks are views into the file buffer, assembly reads each record's head
// (RecordHead), and only the records that survive it are fully decoded. A
// survivor that fails the strict decode is counted as corrupt and the
// assembly reruns without it, so a damaged rollup leaves the records it
// would have replaced live. A superseded or orphaned block is never decoded
// past its head, so damage beyond its head goes uncounted; it is garbage
// either way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "archive/format.hpp"
#include "archive/record.hpp"

namespace patchwork::archive {

enum class OpenError : std::uint8_t {
  kNone = 0,
  kIo,             ///< Missing/unreadable file (or beyond kMaxArchiveBytes).
  kBadMagic,       ///< Too short for a header, or wrong magic.
  kVersionTooNew,  ///< File format version newer than this reader.
};

std::string to_string(OpenError error);

/// Loads every decodable record from an archive file, in logical order
/// (oldest first — the fold order every consumer relies on).
class ArchiveReader {
 public:
  /// Scans the file, verifies CRCs, assembles records from their heads,
  /// decodes the live ones, and bumps the archive_* metrics for any damage
  /// found. Never modifies the file.
  OpenError open(const std::string& path);

  const std::vector<EpochRecord>& records() const { return records_; }
  std::vector<EpochRecord> take_records() { return std::move(records_); }

  std::uint64_t valid_bytes() const { return valid_bytes_; }
  /// Blocks failing their CRC, markers and record heads that do not
  /// decode, live records that fail the strict decode, and record blocks
  /// that copy an earlier record block byte for byte.
  std::uint64_t corrupt_blocks() const { return corrupt_blocks_; }
  std::uint64_t skipped_newer_blocks() const { return skipped_newer_; }
  bool damaged_tail() const { return damaged_tail_; }

  /// Records retired in place by supersede markers (their blocks remain on
  /// disk as garbage until GC).
  std::uint64_t superseded_records() const { return superseded_records_; }
  /// Pending rollups whose commit marker never landed (crash mid-commit).
  std::uint64_t orphan_pending() const { return orphan_pending_; }
  /// Bytes of the blocks backing the logical records.
  std::uint64_t live_bytes() const { return live_bytes_; }
  /// Scanned bytes that no longer contribute a record: superseded blocks,
  /// orphaned pending rollups, markers, and corrupt blocks.
  std::uint64_t garbage_bytes() const;

 private:
  std::vector<EpochRecord> records_;
  std::uint64_t valid_bytes_ = 0;
  std::uint64_t corrupt_blocks_ = 0;
  std::uint64_t skipped_newer_ = 0;
  std::uint64_t superseded_records_ = 0;
  std::uint64_t orphan_pending_ = 0;
  std::uint64_t live_bytes_ = 0;
  bool damaged_tail_ = false;
};

}  // namespace patchwork::archive
