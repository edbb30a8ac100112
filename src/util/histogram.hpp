// Histograms used across the analysis pipeline and the host model.
//
// Histogram     — fixed user-supplied bucket edges (frame-size bins, etc.).
// Log2Histogram — power-of-two buckets, matching the bpftrace-style
//                 log-scaled latency histograms the paper uses in App. B.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace patchwork::util {

/// Histogram over user-supplied bucket boundaries.
///
/// Buckets are [edge[i], edge[i+1]) for i in [0, n-2], plus an implicit
/// overflow bucket for values >= the last edge and an underflow bucket for
/// values < the first edge.
class Histogram {
 public:
  /// `edges` must be strictly increasing and contain at least two entries.
  explicit Histogram(std::vector<double> edges);

  void add(double value, std::uint64_t count = 1);

  /// Add `other`'s counts bucket by bucket. Both must share their edges.
  Histogram& operator+=(const Histogram& other);

  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t total() const { return total_; }

  double bucket_lo(std::size_t i) const { return edges_.at(i); }
  double bucket_hi(std::size_t i) const { return edges_.at(i + 1); }

  /// Fraction of all samples (including under/overflow) in bucket i.
  double fraction(std::size_t i) const;

  /// Human-readable label like "[65, 128)".
  std::string bucket_label(std::size_t i) const;

 private:
  std::vector<double> edges_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

/// Power-of-two histogram: bucket k holds values in [2^k, 2^(k+1)).
///
/// Matches bpftrace's `hist()` output, which Appendix B of the paper uses to
/// measure sys_writev() latencies. `rounded_up_sum()` implements the paper's
/// conservative accounting: each sample contributes its bucket's *upper*
/// bound, because high-latency calls dominate frame loss.
class Log2Histogram {
 public:
  Log2Histogram() = default;

  void add(std::uint64_t value, std::uint64_t count = 1);

  std::uint64_t total() const { return total_; }

  /// Number of occupied buckets (highest index + 1).
  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t k) const;

  /// Lower/upper bound of bucket k: [2^k, 2^(k+1)).
  static std::uint64_t bucket_lo(std::size_t k) { return 1ull << k; }
  static std::uint64_t bucket_hi(std::size_t k) { return 2ull << k; }

  /// Sum of samples where each sample counts as its bucket's upper bound
  /// (the paper's "if latency falls in [32K,64K] ns, use 64K ns" rule).
  std::uint64_t rounded_up_sum() const;

  /// Same, but only over buckets whose lower bound is >= `min_value` —
  /// implements the paper's Appendix B rule of excluding the average case
  /// and summing only the high-latency buckets that dominate frame loss.
  std::uint64_t rounded_up_sum_above(std::uint64_t min_value) const;

  /// Exact sum of the raw values as added (for comparison with the above).
  std::uint64_t exact_sum() const { return exact_sum_; }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t exact_sum_ = 0;
};

}  // namespace patchwork::util
