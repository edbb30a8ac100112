#include "util/compress.hpp"

#include <gtest/gtest.h>

#include "testing/fixtures.hpp"
#include "traffic/flowgen.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"

namespace patchwork::util {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(Compress, EmptyInput) {
  const auto compressed = compress({});
  const auto restored = decompress(compressed);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->empty());
}

TEST(Compress, RoundTripsText) {
  const auto original = bytes_of(
      "the quick brown fox jumps over the lazy dog and then the quick "
      "brown fox does it again and again and again");
  const auto compressed = compress(original);
  const auto restored = decompress(compressed);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, original);
  EXPECT_LT(compressed.size(), original.size());
}

TEST(Compress, HighlyRepetitiveDataShrinksHard) {
  std::vector<std::uint8_t> original(100000, 'A');
  const auto compressed = compress(original);
  EXPECT_LT(compression_ratio(original, compressed), 0.02);
  const auto restored = decompress(compressed);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, original);
}

TEST(Compress, OverlappingMatchesReplicate) {
  // "abcabcabc..." exercises dist < len copies.
  std::vector<std::uint8_t> original;
  for (int i = 0; i < 1000; ++i) {
    original.push_back(static_cast<std::uint8_t>('a' + (i % 3)));
  }
  const auto restored = decompress(compress(original));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, original);
}

TEST(Compress, RandomDataRoundTripsWithoutBlowup) {
  Rng rng(5);
  std::vector<std::uint8_t> original(50000);
  for (auto& b : original) b = static_cast<std::uint8_t>(rng.bits());
  const auto compressed = compress(original);
  // Incompressible data grows only by the framing overhead.
  EXPECT_LT(compression_ratio(original, compressed), 1.02);
  const auto restored = decompress(compressed);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, original);
}

TEST(Compress, TruncatedHeaderPcapCompressesWell) {
  // The gathering-phase payload: 200 B-truncated pcaps of encapsulated
  // traffic. Repeated header structure should compress substantially.
  Rng rng(7);
  const auto profiles = traffic::make_site_profiles(rng, 1);
  traffic::FlowSpec flow = traffic::draw_flow(rng, profiles[0]);
  net::FrameStore frames;
  for (int i = 0; i < 2000; ++i) {
    net::FrameBuilder b;
    traffic::describe_frame(b, flow, /*ack=*/false,
                            static_cast<std::uint32_t>(i));
    b.build_into(frames, static_cast<Nanos>(i) * kMicrosecond);
  }
  const std::vector<std::uint8_t> original =
      patchwork::testing::pcap_of(frames, 200);
  const auto compressed = compress(original);
  EXPECT_LT(compression_ratio(original, compressed), 0.35);
  const auto restored = decompress(compressed);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, original);
}

TEST(Decompress, RejectsGarbage) {
  EXPECT_FALSE(decompress({}).has_value());
  EXPECT_FALSE(decompress(bytes_of("not the magic!")).has_value());
  // Valid magic, truncated token stream.
  auto compressed = compress(bytes_of("hello hello hello hello"));
  compressed.pop_back();
  EXPECT_FALSE(decompress(compressed).has_value());
}

TEST(Decompress, RejectsBadBackReference) {
  // Hand-build a stream whose match reaches before the start.
  std::vector<std::uint8_t> evil = {'P', 'W', 'Z', '1', 4, 0, 0, 0,
                                    0x01, 10, 0, 4};
  EXPECT_FALSE(decompress(evil).has_value());
}

TEST(Decompress, RejectsLengthMismatch) {
  auto compressed = compress(bytes_of("abcdefgh"));
  compressed[4] = 99;  // Lie about the original size.
  EXPECT_FALSE(decompress(compressed).has_value());
}

TEST(Compress, ReusedCompressorMatchesFreeFunction) {
  // One Compressor across many calls (the per-worker scratch pattern) must
  // emit exactly what a fresh context would: the epoch tag retires every
  // stale table entry between calls.
  Compressor reused;
  Rng rng(21);
  std::vector<std::vector<std::uint8_t>> inputs;
  inputs.push_back({});
  inputs.push_back(bytes_of("abcd"));
  inputs.push_back(std::vector<std::uint8_t>(4096, 0x42));
  inputs.push_back(bytes_of(
      "the quick brown fox jumps over the lazy dog and then the quick "
      "brown fox does it again"));
  // Pseudo-random bytes: adversarial for stale-match reuse, since any
  // surviving entry from a previous call would alias a fresh hash slot.
  for (int round = 0; round < 3; ++round) {
    std::vector<std::uint8_t> noise(2000);
    for (auto& b : noise) {
      b = static_cast<std::uint8_t>(rng.uniform_u64(0, 255));
    }
    inputs.push_back(std::move(noise));
  }
  inputs.push_back(bytes_of("abcd"));  // Repeat an early input verbatim.

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto via_reused = reused.compress(inputs[i]);
    const auto via_fresh = compress(inputs[i]);
    EXPECT_EQ(via_reused, via_fresh) << "input " << i;
    const auto restored = decompress(via_reused);
    ASSERT_TRUE(restored.has_value()) << "input " << i;
    EXPECT_EQ(*restored, inputs[i]) << "input " << i;
  }
}

TEST(Compress, RatioHelper) {
  std::vector<std::uint8_t> a(100, 1), b(25, 1);
  EXPECT_DOUBLE_EQ(compression_ratio(a, b), 0.25);
  EXPECT_DOUBLE_EQ(compression_ratio({}, b), 1.0);
}

}  // namespace
}  // namespace patchwork::util
