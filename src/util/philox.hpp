// Counter-based random number generation (Philox4x32-10).
//
// Philox (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3",
// SC'11) is a keyed bijection: block(counter, key) is a 128-bit
// pseudo-random function of a 128-bit counter and a 64-bit key. That shape
// is what makes the data plane's intra-sample decomposition legal — the
// j-th draw of a stream is a pure function of (key, j), so any subtask can
// compute any draw in O(1) without replaying the draws before it, and the
// rendered bytes cannot depend on which worker rendered which slice.
//
// The constants and round structure follow the reference implementation
// (Random123); the golden-vector test pins the exact outputs so a wrong
// multiplier or Weyl constant cannot slip in silently.
#pragma once

#include <array>
#include <cstdint>

namespace patchwork::util {

/// One Philox4x32-10 block: encrypt a 128-bit counter under a 64-bit key.
/// Pure function — the golden vectors in tests/util/philox_test.cpp are
/// checked against the Random123 known-answer outputs.
constexpr std::array<std::uint32_t, 4> philox4x32_10(
    std::array<std::uint32_t, 4> ctr, std::array<std::uint32_t, 2> key) {
  constexpr std::uint32_t kMul0 = 0xD2511F53u;
  constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
  constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;  // Golden ratio.
  constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;  // sqrt(3) - 1.
  for (int round = 0; round < 10; ++round) {
    if (round > 0) {
      key[0] += kWeyl0;
      key[1] += kWeyl1;
    }
    const std::uint64_t p0 = static_cast<std::uint64_t>(kMul0) * ctr[0];
    const std::uint64_t p1 = static_cast<std::uint64_t>(kMul1) * ctr[2];
    ctr = {static_cast<std::uint32_t>(p1 >> 32) ^ ctr[1] ^ key[0],
           static_cast<std::uint32_t>(p1),
           static_cast<std::uint32_t>(p0 >> 32) ^ ctr[3] ^ key[1],
           static_cast<std::uint32_t>(p0)};
  }
  return ctr;
}

/// Counter-based engine over 64-bit draws, usable both as a sequential
/// UniformRandomBitGenerator (for the std:: distributions util::Rng wraps)
/// and as a random-access stream: at(j) returns the j-th draw of the
/// sequence in O(1), independent of the engine's current position.
///
/// Layout: the 64-bit seed is the Philox key; draw j lives in word (j & 1)
/// of block (j >> 1), whose counter is {lo32(block), hi32(block), 0, 0}.
/// Each block yields two 64-bit words assembled from the four 32-bit
/// outputs. A stream therefore holds 2^65 draws — no practical sequence
/// exhausts it.
class PhiloxEngine {
 public:
  using result_type = std::uint64_t;

  explicit PhiloxEngine(std::uint64_t seed)
      : key_{static_cast<std::uint32_t>(seed),
             static_cast<std::uint32_t>(seed >> 32)} {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next sequential draw. Equals at(p) where p is the number of draws
  /// made so far; one block is cached so consecutive draws share a keying.
  result_type operator()() {
    const std::uint64_t j = next_++;
    const std::uint64_t block = j >> 1;
    if (!cached_ || block != cached_block_) {
      words_ = block_words(block);
      cached_block_ = block;
      cached_ = true;
    }
    return words_[j & 1];
  }

  /// The j-th draw of this stream, counted from construction. O(1), does
  /// not advance (or depend on) the sequential position.
  result_type at(std::uint64_t j) const { return block_words(j >> 1)[j & 1]; }

  /// Draws consumed by operator() so far.
  std::uint64_t position() const { return next_; }

  /// The construction seed (= the Philox key). The bulk kernel
  /// (util/philox_simd.hpp) addresses this engine's exact draw table from
  /// (seed, j) alone.
  std::uint64_t seed() const {
    return key_[0] | (static_cast<std::uint64_t>(key_[1]) << 32);
  }

 private:
  std::array<std::uint64_t, 2> block_words(std::uint64_t block) const {
    const std::array<std::uint32_t, 4> ctr = {
        static_cast<std::uint32_t>(block),
        static_cast<std::uint32_t>(block >> 32), 0, 0};
    const std::array<std::uint32_t, 4> out = philox4x32_10(ctr, key_);
    return {out[0] | (static_cast<std::uint64_t>(out[1]) << 32),
            out[2] | (static_cast<std::uint64_t>(out[3]) << 32)};
  }

  std::array<std::uint32_t, 2> key_;
  std::uint64_t next_ = 0;
  std::uint64_t cached_block_ = 0;
  bool cached_ = false;
  std::array<std::uint64_t, 2> words_{};
};

}  // namespace patchwork::util
