#include "util/philox_simd.hpp"

#include <array>

#include "util/philox.hpp"

namespace patchwork::util {

namespace {

/// Writes the two 64-bit words of blocks [b0, b0+nblocks) of the stream
/// keyed by `key` into out[0..2*nblocks), assembled exactly as
/// PhiloxEngine::block_words() assembles them.
void philox_blocks(std::uint64_t key, std::uint64_t b0, std::size_t nblocks,
                   std::uint64_t* out) {
  const std::array<std::uint32_t, 2> k{static_cast<std::uint32_t>(key),
                                       static_cast<std::uint32_t>(key >> 32)};
  auto one = [&](std::uint64_t b, std::uint64_t* two) {
    const std::array<std::uint32_t, 4> o = philox4x32_10(
        {static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(b >> 32), 0,
         0},
        k);
    two[0] = o[0] | (static_cast<std::uint64_t>(o[1]) << 32);
    two[1] = o[2] | (static_cast<std::uint64_t>(o[3]) << 32);
  };
  // Four independent blocks per step: enough ILP for the multiplier
  // pipeline, and the shape auto-vectorizers recognize.
  std::size_t i = 0;
  for (; i + 4 <= nblocks; i += 4) {
    one(b0 + i, out + 2 * i);
    one(b0 + i + 1, out + 2 * i + 2);
    one(b0 + i + 2, out + 2 * i + 4);
    one(b0 + i + 3, out + 2 * i + 6);
  }
  for (; i < nblocks; ++i) one(b0 + i, out + 2 * i);
}

}  // namespace

void philox_bulk(std::uint64_t key, std::uint64_t j0, std::size_t n,
                 std::uint64_t* out) {
  if (n == 0) return;
  std::size_t i = 0;
  // Odd head: draw j0 is word 1 of its block; compute the pair, keep one.
  if ((j0 & 1) != 0) {
    std::uint64_t pair[2];
    philox_blocks(key, j0 >> 1, 1, pair);
    out[0] = pair[1];
    i = 1;
  }
  // Aligned middle: whole blocks land straight in the output buffer.
  const std::size_t pairs = (n - i) / 2;
  if (pairs > 0) philox_blocks(key, (j0 + i) >> 1, pairs, out + i);
  i += 2 * pairs;
  // Odd tail: one draw left, word 0 of the next block.
  if (i < n) {
    std::uint64_t pair[2];
    philox_blocks(key, (j0 + i) >> 1, 1, pair);
    out[i] = pair[0];
  }
}

}  // namespace patchwork::util
