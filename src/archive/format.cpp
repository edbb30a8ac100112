#include "archive/format.hpp"

#include "util/byte_io.hpp"
#include "util/crc32.hpp"

namespace patchwork::archive {

std::vector<std::uint8_t> encode_file_header() {
  std::vector<std::uint8_t> out;
  out.reserve(kFileHeaderSize);
  out.insert(out.end(), kMagic.begin(), kMagic.end());
  util::put_be16(out, kFormatVersion);
  util::put_be16(out, 0);  // flags
  return out;
}

void append_block(std::vector<std::uint8_t>& out, BlockType type,
                  std::span<const std::uint8_t> payload) {
  util::put_be32(out, static_cast<std::uint32_t>(payload.size()));
  // The CRC covers type..reserved plus the payload (the length frames the
  // block and is validated by the scan's bounds checks instead). The CRC
  // sits between the two ranges, so chain the incremental form, as the
  // scan does.
  const std::size_t covered = out.size();
  util::put_u8(out, static_cast<std::uint8_t>(type));
  util::put_u8(out, kPayloadVersion);
  util::put_be16(out, 0);  // reserved
  const std::uint32_t crc = util::crc32(
      payload, util::crc32(std::span<const std::uint8_t>(out).subspan(covered)));
  util::put_be32(out, crc);
  out.insert(out.end(), payload.begin(), payload.end());
}

}  // namespace patchwork::archive
