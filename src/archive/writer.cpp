#include "archive/writer.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/file_io.hpp"

namespace patchwork::archive {

OpenError ArchiveWriter::open(const std::string& path) {
  path_ = path;
  next_epoch_index_ = 0;

  const auto size = util::file_size_bytes(path);
  if (!size.has_value() || *size == 0) {
    // Fresh archive: header only. Atomic, so a concurrent reader sees
    // either no file or a well-formed empty archive.
    const std::vector<std::uint8_t> header = encode_file_header();
    if (!util::write_file_atomic(path, std::span<const std::uint8_t>(header))) {
      return OpenError::kIo;
    }
    return OpenError::kNone;
  }

  ArchiveReader reader;
  const OpenError error = reader.open(path);
  if (error != OpenError::kNone) return error;
  if (reader.damaged_tail()) {
    if (!util::truncate_file(path, reader.valid_bytes())) {
      return OpenError::kIo;
    }
    obs::registry()
        .counter("patchwork_archive_tail_truncations_total",
                 "Damaged archive tails cut back to the last complete block")
        .add(1);
  }
  for (const EpochRecord& record : reader.records()) {
    next_epoch_index_ = std::max(next_epoch_index_, record.last_epoch + 1);
  }
  return OpenError::kNone;
}

bool ArchiveWriter::append(EpochRecord record) {
  if (record.level == 0) {
    record.first_epoch = record.last_epoch = next_epoch_index_;
  }
  const std::vector<std::uint8_t> payload = encode_record(record);
  std::vector<std::uint8_t> block;
  block.reserve(kBlockHeaderSize + payload.size());
  append_block(block, record.is_rollup() ? BlockType::kRollup
                                         : BlockType::kEpoch,
               payload);
  if (!util::append_file(path_, block)) return false;
  next_epoch_index_ = std::max(next_epoch_index_, record.last_epoch + 1);
  obs::registry()
      .counter("patchwork_archive_records_appended_total",
               "Epoch/rollup records appended to archives")
      .add(1);
  return true;
}

std::vector<std::uint8_t> render_archive(
    const std::vector<EpochRecord>& records) {
  std::vector<std::uint8_t> out = encode_file_header();
  for (const EpochRecord& record : records) {
    const std::vector<std::uint8_t> payload = encode_record(record);
    append_block(out, record.is_rollup() ? BlockType::kRollup
                                         : BlockType::kEpoch,
                 payload);
  }
  return out;
}

bool write_all(const std::string& path,
               const std::vector<EpochRecord>& records) {
  const std::vector<std::uint8_t> image = render_archive(records);
  return util::write_file_atomic(path, std::span<const std::uint8_t>(image));
}

}  // namespace patchwork::archive
