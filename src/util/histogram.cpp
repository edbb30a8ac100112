#include "util/histogram.hpp"

namespace patchwork::util {

void Log2Histogram::add(std::uint64_t value, std::uint64_t count) {
  std::size_t k = 0;
  while ((2ull << k) <= value && k < 62) ++k;
  if (counts_.size() <= k) counts_.resize(k + 1, 0);
  counts_[k] += count;
  total_ += count;
  exact_sum_ += value * count;
}

std::uint64_t Log2Histogram::bucket(std::size_t k) const {
  return k < counts_.size() ? counts_[k] : 0;
}

std::uint64_t Log2Histogram::rounded_up_sum() const {
  return rounded_up_sum_above(0);
}

std::uint64_t Log2Histogram::rounded_up_sum_above(
    std::uint64_t min_value) const {
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    if (bucket_lo(k) < min_value) continue;
    sum += counts_[k] * bucket_hi(k);
  }
  return sum;
}

}  // namespace patchwork::util
