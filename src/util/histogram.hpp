// Power-of-two histograms for the host model and latency metrics, matching
// the bpftrace-style log-scaled latency histograms the paper uses in
// App. B. The fixed-edge histogram (frame-size bins, etc.) is
// archive::HistCounts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace patchwork::util {

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
