#include "util/crc32.hpp"

#include <array>

#include "util/byte_io.hpp"

namespace patchwork::util {

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables for the reflected polynomial. tables[0] is the
/// bytewise table; tables[k][i] is tables[k-1][i] advanced over one more
/// zero byte, so one lookup per byte folds eight bytes into the CRC at once.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t seed) {
  const auto& t = kTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  std::size_t off = 0;
  for (; bytes.size() - off >= 8; off += 8) {
    const std::uint32_t lo = c ^ get_le32(bytes, off);
    const std::uint32_t hi = get_le32(bytes, off + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; off < bytes.size(); ++off) {
    c = t[0][(c ^ bytes[off]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace patchwork::util
