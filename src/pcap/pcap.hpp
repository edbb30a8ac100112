// Classic libpcap file format reader/writer.
//
// All three of Patchwork's capture methods "produce pcap files"
// (Section 6.2.2), and the offline Digest step consumes them
// (Section 6.2.4). The implementation here emits byte-exact classic pcap
// (magic 0xa1b2c3d4, microsecond timestamps, or the 0xa1b23c4d nanosecond
// variant), LINKTYPE_ETHERNET, so files round-trip through this code and
// would be readable by external tools.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/frame_store.hpp"
#include "util/units.hpp"

namespace patchwork::pcap {

enum class TimestampResolution : std::uint8_t { kMicro, kNano };

inline constexpr std::uint32_t kMagicMicro = 0xa1b2c3d4;
inline constexpr std::uint32_t kMagicNano = 0xa1b23c4d;
inline constexpr std::uint32_t kLinkTypeEthernet = 1;
inline constexpr std::size_t kGlobalHeaderSize = 24;
inline constexpr std::size_t kRecordHeaderSize = 16;

/// Serializes frames into an in-memory pcap byte stream. The byte stream is
/// what the capture engines hand to the host storage model and what the
/// gathering phase ships to the coordinator.
class PcapWriter {
 public:
  explicit PcapWriter(std::uint32_t snaplen = 65535,
                      TimestampResolution res = TimestampResolution::kMicro);

  /// Appends one record from raw bytes + wire length. The bytes are
  /// truncated to the writer's snaplen; the record's orig_len preserves the
  /// wire length. Returns a mutable span over the record's payload inside
  /// the stream so callers can edit in place (e.g. anonymization) after the
  /// copy. The span is valid until the next write or take_buffer().
  std::span<std::uint8_t> write_record(std::span<const std::uint8_t> bytes,
                                       std::size_t wire_length,
                                       util::Nanos timestamp);

  std::uint64_t frames_written() const { return frames_; }
  std::uint64_t bytes_written() const { return buffer_.size(); }

  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::vector<std::uint8_t> take_buffer();

 private:
  std::uint32_t snaplen_;
  TimestampResolution resolution_;
  std::vector<std::uint8_t> buffer_;
  std::uint64_t frames_ = 0;
};

struct PcapFileInfo {
  TimestampResolution resolution = TimestampResolution::kMicro;
  std::uint32_t snaplen = 0;
  std::uint32_t link_type = 0;
};

/// Streaming reader over an in-memory pcap byte stream.
class PcapReader {
 public:
  /// Returns nullopt if the magic/global header is invalid.
  static std::optional<PcapReader> open(std::vector<std::uint8_t> bytes);

  const PcapFileInfo& info() const { return info_; }

  /// Next record as a zero-copy view into the reader's buffer, or nullopt
  /// at end of stream: the captured (possibly truncated) bytes, the
  /// original wire length and the timestamp. The view is valid only until
  /// the reader is destroyed or moved — the digest hot path consumes each
  /// view before pulling the next. A record whose header or body extends
  /// past the buffer ends the stream; a record whose lengths are merely
  /// inconsistent (incl > orig) is skipped and the scan resyncs at the
  /// following record. Both cases count in `bad_records`.
  std::optional<net::FrameView> next_view();

  std::uint64_t frames_read() const { return frames_; }
  std::uint64_t bad_records() const { return bad_records_; }

 private:
  PcapReader(std::vector<std::uint8_t> bytes, PcapFileInfo info)
      : bytes_(std::move(bytes)), info_(info), offset_(kGlobalHeaderSize) {}

  std::vector<std::uint8_t> bytes_;
  PcapFileInfo info_;
  std::size_t offset_;
  std::uint64_t frames_ = 0;
  std::uint64_t bad_records_ = 0;
};

/// Total pcap stream size for `frames` records of `captured_bytes` payload
/// each — used by the capacity planner and the storage model.
constexpr std::uint64_t pcap_stream_size(std::uint64_t frames,
                                         std::uint64_t captured_bytes) {
  return kGlobalHeaderSize + frames * (kRecordHeaderSize + captured_bytes);
}

}  // namespace patchwork::pcap
