#include "flowsched/pareto.hpp"

#include <algorithm>
#include <cmath>

namespace patchwork::flowsched {

namespace {

/// Inverse-CDF Pareto(1, shape) truncated at kMaxRaw.
double raw_variate(double u, double shape) {
  const double x = std::pow(1.0 - u, -1.0 / shape);
  return std::min(x, ParetoDurations::kMaxRaw);
}

/// Numerically measure the truncated variate's mean, BESS-style: a fixed
/// calibration stream makes the measurement a pure function of the shape.
/// Like BESS, which measures once at Init, it runs once per shape: each
/// thread keeps its last (shape, mean) pair, and a planner builds one
/// sampler per window with the run's one shape.
double measure_raw_mean(double shape) {
  thread_local double last_shape = 0.0;  // Never a clamped shape.
  thread_local double last_mean = 0.0;
  if (shape == last_shape) return last_mean;
  constexpr std::uint64_t kCalibrationSeed = 0x70617265746f6d6eull;
  constexpr std::size_t kCalibrationDraws = 1 << 14;
  util::Rng rng(kCalibrationSeed);
  double sum = 0.0;
  for (std::size_t i = 0; i < kCalibrationDraws; ++i) {
    sum += raw_variate(rng.uniform(), shape);
  }
  last_shape = shape;
  last_mean = sum / static_cast<double>(kCalibrationDraws);
  return last_mean;
}

}  // namespace

ParetoDurations::ParetoDurations(double shape, double mean)
    : shape_(std::max(shape, 1.05)),
      mean_(std::max(mean, 1e-6)),
      raw_mean_(measure_raw_mean(shape_)),
      scale_(mean_ / raw_mean_) {}

double ParetoDurations::draw(util::Rng& rng) const {
  return raw_variate(rng.uniform(), shape_) * scale_;
}

}  // namespace patchwork::flowsched
