#include "util/histogram.hpp"

#include <cassert>
#include <sstream>

namespace patchwork::util {

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  assert(edges_.size() >= 2);
  for (std::size_t i = 1; i < edges_.size(); ++i) {
    assert(edges_[i] > edges_[i - 1]);
  }
  counts_.assign(edges_.size() - 1, 0);
}

void Histogram::add(double value, std::uint64_t count) {
  total_ += count;
  if (value < edges_.front()) {
    underflow_ += count;
    return;
  }
  if (value >= edges_.back()) {
    overflow_ += count;
    return;
  }
  // Binary search for the bucket containing `value`.
  std::size_t lo = 0, hi = counts_.size() - 1;
  while (lo < hi) {
    std::size_t mid = (lo + hi + 1) / 2;
    if (value >= edges_[mid]) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  counts_[lo] += count;
}

Histogram& Histogram::operator+=(const Histogram& other) {
  assert(edges_ == other.edges_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
  return *this;
}

double Histogram::fraction(std::size_t i) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_.at(i)) / static_cast<double>(total_);
}

std::string Histogram::bucket_label(std::size_t i) const {
  std::ostringstream os;
  os << "[" << edges_.at(i) << ", " << edges_.at(i + 1) << ")";
  return os.str();
}

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
