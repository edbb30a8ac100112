// Bulk draw contracts: every RngBlock fill must be draw-for-draw identical
// to its scalar *_at counterpart — including the bounded-fill edge ranges
// (degenerate, full 2^64 span, just past a power of two) where a reduction
// bug would first show.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace patchwork::util {
namespace {

TEST(RngBulk, RawFillMatchesAt) {
  const RngBlock block(Rng(0xfeedface));
  for (std::uint64_t j0 : {0ull, 1ull, 97ull}) {
    std::vector<std::uint64_t> out(257);
    block.raw_fill(j0, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], block.at(j0 + i)) << "j=" << (j0 + i);
    }
  }
}

TEST(RngBulk, Uniform01FillMatchesScalar) {
  const RngBlock block(Rng(31337));
  // Longer than the internal chunk so the chunking seam is covered.
  std::vector<double> out(3000);
  block.uniform01_fill(5, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], block.uniform01_at(5 + i)) << "i=" << i;
  }
}

TEST(RngBulk, BoundedFillMatchesScalarOnEdgeRanges) {
  const RngBlock block(Rng(0x600dcafe));
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  struct Range {
    std::uint64_t lo, hi;
  };
  const Range ranges[] = {
      {42, 42},                     // Degenerate: lo == hi.
      {0, kMax},                    // Full span: range wraps to 0.
      {1, kMax},                    // One short of the full span.
      {0, 1ull << 20},              // Range just past a power of two.
      {7, 6 + (1ull << 20)},        // Same width, shifted lo.
      {0, (1ull << 20) - 1},        // Exact power of two.
      {kMax - 4, kMax},             // Top of the domain.
      {0, 1},                       // Coin flip.
  };
  for (const Range& r : ranges) {
    std::vector<std::uint64_t> out(513);
    block.bounded_fill(11, r.lo, r.hi, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_GE(out[i], r.lo);
      ASSERT_LE(out[i], r.hi);
      ASSERT_EQ(out[i], block.bounded_at(11 + i, r.lo, r.hi))
          << "[" << r.lo << "," << r.hi << "] i=" << i;
    }
  }
}

TEST(RngBulk, BoundedFillNeverDivergesFromScalarProperty) {
  // Property sweep over derived streams and pseudo-random ranges: the bulk
  // path is rejection-free, so it can never consume a different number of
  // draws than the scalar path — outputs must match index-for-index.
  const Rng root(2024);
  for (std::uint64_t stream = 0; stream < 8; ++stream) {
    const RngBlock block(root.split(stream));
    // Derive the range under test from the stream itself.
    const std::uint64_t a = block.at(1000000 + stream);
    const std::uint64_t b = block.at(2000000 + stream);
    const std::uint64_t lo = std::min(a, b);
    const std::uint64_t hi = std::max(a, b);
    std::vector<std::uint64_t> out(64);
    block.bounded_fill(stream * 17, lo, hi, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], block.bounded_at(stream * 17 + i, lo, hi))
          << "stream=" << stream << " i=" << i;
    }
  }
}

TEST(RngBulk, ChanceFillMatchesScalarAndHandlesEdges) {
  const RngBlock block(Rng(4242));
  for (double p : {0.0, -1.0, 1.0, 2.0, 0.3, 0.999}) {
    std::vector<std::uint8_t> out(1500);
    block.chance_fill(9, p, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i] != 0, block.chance_at(9 + i, p))
          << "p=" << p << " i=" << i;
      ASSERT_LE(out[i], 1) << "fills emit strict 0/1";
    }
  }
}

}  // namespace
}  // namespace patchwork::util
