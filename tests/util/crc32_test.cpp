#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace patchwork::util {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

/// The reflected IEEE polynomial applied one bit at a time: the reference
/// any table-driven crc32 must equal for every input and seed.
std::uint32_t crc32_reference(std::span<const std::uint8_t> bytes,
                              std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::uint8_t b : bytes) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.bits());
  return out;
}

TEST(Crc32, KnownVectors) {
  // The IEEE "check" value and a couple of spot checks.
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(bytes_of("")), 0x00000000u);
  EXPECT_EQ(crc32(bytes_of("a")), 0xE8B7BE43u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const auto all = bytes_of("patchwork archive block payload");
  const std::span<const std::uint8_t> head(all.data(), 10);
  const std::span<const std::uint8_t> tail(all.data() + 10, all.size() - 10);
  EXPECT_EQ(crc32(tail, crc32(head)), crc32(all));
}

TEST(Crc32, DetectsSingleFlippedByte) {
  auto payload = bytes_of("the quick brown fox jumps over the lazy dog");
  const std::uint32_t good = crc32(payload);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] ^= 0x40;
    EXPECT_NE(crc32(payload), good) << "flip at " << i << " undetected";
    payload[i] ^= 0x40;
  }
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  const std::vector<std::uint8_t> buf = random_bytes(8 + 72, 1);
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 72; ++len) {
      const auto bytes = all.subspan(start, len);
      for (std::uint32_t seed : {0u, 0xCBF43926u, 0xFFFFFFFFu}) {
        ASSERT_EQ(crc32(bytes, seed), crc32_reference(bytes, seed))
            << "start " << start << " len " << len << " seed " << seed;
      }
    }
  }
}

TEST(Crc32, MatchesBytewiseReferenceOnOneMebibyte) {
  const std::vector<std::uint8_t> buf = random_bytes(1 << 20, 2);
  EXPECT_EQ(crc32(buf), crc32_reference(buf));
}

TEST(Crc32, ChainedSplitMatchesReferenceAtEveryPoint) {
  const std::vector<std::uint8_t> buf = random_bytes(100, 3);
  const std::span<const std::uint8_t> all(buf);
  const std::uint32_t whole = crc32_reference(all);
  for (std::size_t cut = 0; cut <= all.size(); ++cut) {
    EXPECT_EQ(crc32(all.subspan(cut), crc32(all.first(cut))), whole)
        << "cut " << cut;
  }
}

}  // namespace
}  // namespace patchwork::util
