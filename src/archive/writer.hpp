// Appending side of the archive.
//
// open() performs crash recovery before anything else: it scans the file,
// and if the scan reports a damaged tail (a block cut short by a crash or
// an unframeable length field), the file is truncated back to the last
// complete block — append-only storage plus truncate-on-open makes every
// append effectively atomic at block granularity. open() also derives the
// next epoch index from the surviving records so labels and indices stay
// monotonic across process restarts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "archive/reader.hpp"
#include "archive/record.hpp"

namespace patchwork::archive {

class ArchiveWriter {
 public:
  /// Create the file (header only) if absent; otherwise scan it, truncate
  /// any damaged tail, and position after the last record.
  OpenError open(const std::string& path);

  /// Append one record. Raw records (level 0) are stamped with the next
  /// epoch index (first_epoch == last_epoch == index); rollups keep their
  /// span. Returns false on IO failure.
  bool append(EpochRecord record);

  std::uint64_t next_epoch_index() const { return next_epoch_index_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::uint64_t next_epoch_index_ = 0;
};

/// Serialize `records` into a complete archive image (header + one block
/// per record; rollups get BlockType::kRollup).
std::vector<std::uint8_t> render_archive(
    const std::vector<EpochRecord>& records);

/// Atomically replace `path` with a fresh archive holding `records` (the
/// compactor's commit step). Returns false on IO failure.
bool write_all(const std::string& path,
               const std::vector<EpochRecord>& records);

}  // namespace patchwork::archive
