#include "pcap/pcap.hpp"

#include <algorithm>

#include "util/byte_io.hpp"

namespace patchwork::pcap {

using util::get_le16;
using util::get_le32;
using util::put_le16;
using util::put_le32;

PcapWriter::PcapWriter(std::uint32_t snaplen, TimestampResolution res)
    : snaplen_(snaplen), resolution_(res) {
  put_le32(buffer_, res == TimestampResolution::kMicro ? kMagicMicro
                                                       : kMagicNano);
  put_le16(buffer_, 2);  // Version major.
  put_le16(buffer_, 4);  // Version minor.
  put_le32(buffer_, 0);  // thiszone.
  put_le32(buffer_, 0);  // sigfigs.
  put_le32(buffer_, snaplen_);
  put_le32(buffer_, kLinkTypeEthernet);
}

std::span<std::uint8_t> PcapWriter::write_record(
    std::span<const std::uint8_t> bytes, std::size_t wire_length,
    util::Nanos timestamp) {
  // Truncate by slicing the input bytes rather than materializing a cut
  // Frame — this is the per-record hot loop of the DPDK writer model.
  if (snaplen_ != 0 && bytes.size() > snaplen_) bytes = bytes.first(snaplen_);
  const std::size_t needed =
      buffer_.size() + kRecordHeaderSize + bytes.size();
  if (buffer_.capacity() < needed) {
    // Keep growth geometric; a bare reserve(needed) per record would pin
    // capacity to size and turn the append loop quadratic.
    buffer_.reserve(std::max(needed, buffer_.capacity() * 2));
  }
  const util::Nanos ts = timestamp;
  const std::uint32_t sec = static_cast<std::uint32_t>(ts / util::kSecond);
  const std::uint32_t frac =
      resolution_ == TimestampResolution::kMicro
          ? static_cast<std::uint32_t>((ts % util::kSecond) /
                                       util::kMicrosecond)
          : static_cast<std::uint32_t>(ts % util::kSecond);
  put_le32(buffer_, sec);
  put_le32(buffer_, frac);
  put_le32(buffer_, static_cast<std::uint32_t>(bytes.size()));
  put_le32(buffer_, static_cast<std::uint32_t>(wire_length));
  const std::size_t payload_at = buffer_.size();
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  ++frames_;
  return std::span<std::uint8_t>(buffer_).subspan(payload_at, bytes.size());
}

std::vector<std::uint8_t> PcapWriter::take_buffer() {
  std::vector<std::uint8_t> out = std::move(buffer_);
  buffer_.clear();
  frames_ = 0;
  return out;
}

std::optional<PcapReader> PcapReader::open(std::vector<std::uint8_t> bytes) {
  if (bytes.size() < kGlobalHeaderSize) return std::nullopt;
  const std::uint32_t magic = get_le32(bytes, 0);
  PcapFileInfo info;
  if (magic == kMagicMicro) {
    info.resolution = TimestampResolution::kMicro;
  } else if (magic == kMagicNano) {
    info.resolution = TimestampResolution::kNano;
  } else {
    return std::nullopt;
  }
  if (get_le16(bytes, 4) != 2) return std::nullopt;  // Version major.
  info.snaplen = get_le32(bytes, 16);
  info.link_type = get_le32(bytes, 20);
  return PcapReader(std::move(bytes), info);
}

std::optional<net::FrameView> PcapReader::next_view() {
  // Loop so a record with inconsistent lengths is skipped in place and the
  // scan resyncs at the record that follows it.
  for (;;) {
    if (offset_ + kRecordHeaderSize > bytes_.size()) {
      if (offset_ != bytes_.size()) {
        ++bad_records_;  // Trailing partial header, counted once.
        offset_ = bytes_.size();
      }
      return std::nullopt;
    }
    const std::uint32_t sec = get_le32(bytes_, offset_);
    const std::uint32_t frac = get_le32(bytes_, offset_ + 4);
    const std::uint32_t incl = get_le32(bytes_, offset_ + 8);
    const std::uint32_t orig = get_le32(bytes_, offset_ + 12);
    offset_ += kRecordHeaderSize;
    if (offset_ + incl > bytes_.size()) {
      // Body extends past the buffer: no resync point exists.
      ++bad_records_;
      offset_ = bytes_.size();
      return std::nullopt;
    }
    if (incl > orig) {
      // Corrupt lengths but the body fits — skip just this record.
      ++bad_records_;
      offset_ += incl;
      continue;
    }
    net::FrameView view;
    view.bytes = std::span<const std::uint8_t>(bytes_).subspan(offset_, incl);
    view.wire_length = orig;
    view.timestamp =
        static_cast<util::Nanos>(sec) * util::kSecond +
        (info_.resolution == TimestampResolution::kMicro
             ? static_cast<util::Nanos>(frac) * util::kMicrosecond
             : static_cast<util::Nanos>(frac));
    offset_ += incl;
    ++frames_;
    return view;
  }
}

}  // namespace patchwork::pcap
