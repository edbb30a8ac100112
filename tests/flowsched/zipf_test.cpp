// Property tests for Zipf flow popularity: the empirical rank-frequency
// curve of many draws must be a power law whose log-log slope matches the
// configured exponent (the --zipf-param knob).
#include "flowsched/zipf.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace patchwork::flowsched {
namespace {

/// Least-squares slope of log(count) against log(rank + 1) over the first
/// `head` ranks (the well-populated part of the curve).
double rank_frequency_slope(const std::vector<std::uint64_t>& counts,
                            std::size_t head) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  double n = 0;
  for (std::size_t r = 0; r < head; ++r) {
    if (counts[r] == 0) continue;
    const double x = std::log(static_cast<double>(r + 1));
    const double y = std::log(static_cast<double>(counts[r]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    n += 1.0;
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

TEST(FlowSched, ZipfRankFrequencySlopeMatchesParam) {
  constexpr std::size_t kRanks = 500;
  constexpr std::size_t kDraws = 200000;
  for (double s : {0.8, 1.26}) {
    const ZipfSampler zipf(kRanks, s);
    util::Rng rng(99);
    std::vector<std::uint64_t> counts(kRanks, 0);
    for (std::size_t i = 0; i < kDraws; ++i) ++counts[zipf.draw(rng)];
    const double slope = rank_frequency_slope(counts, 50);
    EXPECT_NEAR(slope, -s, 0.12) << "zipf_param " << s;
  }
}

TEST(FlowSched, ZipfProbabilitiesNormalizeAndDecay) {
  const ZipfSampler zipf(100, 1.26);
  double total = 0.0;
  for (std::size_t r = 0; r < zipf.ranks(); ++r) {
    total += zipf.probability(r);
    if (r > 0) {
      EXPECT_LT(zipf.probability(r), zipf.probability(r - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(zipf.probability(100), 0.0);  // Out of range.
}

TEST(FlowSched, ZipfZeroExponentIsUniform) {
  const ZipfSampler zipf(10, 0.0);
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(zipf.probability(r), 0.1, 1e-12);
  }
}

TEST(FlowSched, ZipfDrawsAreDeterministic) {
  const ZipfSampler zipf(64, 1.26);
  util::Rng a(5), b(5);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(zipf.draw(a), zipf.draw(b));
  }
}

}  // namespace
}  // namespace patchwork::flowsched
