// Pins the bulk Philox kernel: philox_bulk must reproduce PhiloxEngine's
// draw table bit-for-bit, including the Random123 golden vectors, odd
// counter offsets, and the 2^32 block-counter carry.
#include "util/philox_simd.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/philox.hpp"

namespace patchwork::util {
namespace {

TEST(PhiloxSimd, BulkReproducesGoldenVectorsOnEveryTier) {
  // The all-zero Random123 golden block {0x6627e8d5, 0xe169c58d,
  // 0xbc57ac4c, 0x9b00dbd8} assembles into draws 0 and 1 of key 0.
  std::uint64_t out[2] = {0, 0};
  philox_bulk(/*key=*/0, /*j0=*/0, /*n=*/2, out);
  EXPECT_EQ(out[0], 0xe169c58d6627e8d5ull);
  EXPECT_EQ(out[1], 0x9b00dbd8bc57ac4cull);
}

TEST(PhiloxSimd, BulkMatchesEngineOnEveryTier) {
  const std::uint64_t keys[] = {0, 0x1234abcd5678ef90ull, ~std::uint64_t{0}};
  // Offsets probe odd starts and the lo32 -> hi32 block-counter carry
  // (blocks near 2^32, i.e. draws near 2^33).
  const std::uint64_t offsets[] = {0, 1, 5, (1ull << 33) - 7, (1ull << 33) - 1};
  const std::size_t sizes[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 33, 1000};
  for (std::uint64_t key : keys) {
    const PhiloxEngine engine(key);
    for (std::uint64_t j0 : offsets) {
      for (std::size_t n : sizes) {
        std::vector<std::uint64_t> out(n, 0xdeadbeefdeadbeefull);
        philox_bulk(key, j0, n, out.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], engine.at(j0 + i))
              << "key=" << key << " j=" << (j0 + i);
        }
      }
    }
  }
}

}  // namespace
}  // namespace patchwork::util
