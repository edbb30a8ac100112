// Property tests for the measured-mean Pareto duration sampler: across
// seeds, the empirical mean of many draws must land on the configured
// mean regardless of the tail shape — that is the whole point of the
// BESS-style numeric calibration.
#include "flowsched/pareto.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace patchwork::flowsched {
namespace {

double empirical_mean(const ParetoDurations& d, std::uint64_t seed,
                      std::size_t n) {
  util::Rng rng(seed);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += d.draw(rng);
  return sum / static_cast<double>(n);
}

TEST(FlowSched, MeasuredParetoMeanMatchesConfiguredAcrossSeeds) {
  constexpr double kMean = 5.0;
  constexpr std::size_t kDraws = 20000;
  for (double shape : {1.1, 1.3, 2.0}) {
    const ParetoDurations d(shape, kMean);
    EXPECT_GT(d.measured_raw_mean(), 1.0) << "shape " << shape;
    // Heavier tails need looser sampling tolerance; the calibration error
    // itself is well inside either bound.
    const double tol = shape < 1.5 ? 0.20 : 0.10;
    for (std::uint64_t seed : {7ull, 21ull, 1234ull}) {
      const double mean = empirical_mean(d, seed, kDraws);
      EXPECT_NEAR(mean, kMean, kMean * tol)
          << "shape " << shape << " seed " << seed;
    }
  }
}

TEST(FlowSched, ParetoDrawsAreHeavyTailedButTruncated) {
  const ParetoDurations d(1.3, 5.0);
  util::Rng rng(42);
  double max_draw = 0.0;
  std::size_t above_mean = 0;
  constexpr std::size_t kDraws = 20000;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const double x = d.draw(rng);
    EXPECT_GT(x, 0.0);
    // Truncation cap: raw <= kMaxRaw, so draws <= kMaxRaw * scale.
    EXPECT_LE(x, ParetoDurations::kMaxRaw * 5.0);
    max_draw = std::max(max_draw, x);
    if (x > 5.0) ++above_mean;
  }
  // Heavy tail: the mean sits far above the median — most draws are below
  // it, a few huge ones balance the books.
  EXPECT_LT(above_mean, kDraws / 4);
  EXPECT_GT(max_draw, 5.0 * 10.0);
}

TEST(FlowSched, ParetoCalibrationIsPinned) {
  // The measured raw mean is a pure function of the (clamped) shape,
  // whatever was calibrated before it on the same thread and on whichever
  // thread it runs. Pinned exactly: a calibration that is computed once
  // and reused must return these same doubles.
  struct Case {
    double shape;
    double raw_mean;
  };
  const std::vector<Case> order = {
      {1.3, 0x1.0deb3f4283b6ep+2},  {2.0, 0x1.04a8edcf42424p+1},
      {1.3, 0x1.0deb3f4283b6ep+2},  {1.26, 0x1.229d72b05b8b2p+2},
      {1.0, 0x1.d3ccda2d79695p+2},  {1.26, 0x1.229d72b05b8b2p+2},
  };
  auto check_all = [&order](const char* where) {
    for (const Case& c : order) {
      const ParetoDurations d(c.shape, 5.0);
      EXPECT_EQ(d.measured_raw_mean(), c.raw_mean)
          << where << ": shape " << c.shape;
      EXPECT_EQ(d.shape(), c.shape < 1.05 ? 1.05 : c.shape) << where;
    }
  };
  check_all("main thread");
  std::thread other([&check_all] { check_all("second thread"); });
  other.join();
}

TEST(FlowSched, ParetoCalibrationIsDeterministic) {
  const ParetoDurations a(1.26, 3.0);
  const ParetoDurations b(1.26, 3.0);
  EXPECT_DOUBLE_EQ(a.measured_raw_mean(), b.measured_raw_mean());
  util::Rng ra(9), rb(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.draw(ra), b.draw(rb));
  }
}

}  // namespace
}  // namespace patchwork::flowsched
