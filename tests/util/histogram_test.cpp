#include "util/histogram.hpp"

#include <gtest/gtest.h>

#include "archive/record.hpp"

namespace patchwork::util {
namespace {

// The fixed-edge histogram is archive::HistCounts.

TEST(Histogram, BucketsValuesCorrectly) {
  archive::HistCounts h({0, 10, 20, 30});
  h.add(0);    // [0,10)
  h.add(9.9);  // [0,10)
  h.add(10);   // [10,20)
  h.add(25);   // [20,30)
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, UnderflowAndOverflow) {
  archive::HistCounts h({10, 20});
  h.add(5);
  h.add(20);
  h.add(1000);
  EXPECT_EQ(h.underflow, 1u);
  EXPECT_EQ(h.overflow, 2u);
  EXPECT_EQ(h.counts[0], 0u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, WeightedAdd) {
  archive::HistCounts h({0, 100});
  h.add(50, 7);
  EXPECT_EQ(h.counts[0], 7u);
  EXPECT_EQ(h.total(), 7u);
}

TEST(Histogram, MergeAddsEveryBucket) {
  archive::HistCounts a({0, 10, 20});
  archive::HistCounts b({0, 10, 20});
  a.add(5);
  a.add(-1);
  b.add(15, 3);
  b.add(25);
  a.merge(b);
  EXPECT_EQ(a.counts[0], 1u);
  EXPECT_EQ(a.counts[1], 3u);
  EXPECT_EQ(a.underflow, 1u);
  EXPECT_EQ(a.overflow, 1u);
  EXPECT_EQ(a.total(), 6u);
}

TEST(Histogram, FractionIncludesOutOfRangeSamples) {
  archive::HistCounts h({0, 10});
  h.add(5);
  h.add(100);  // Overflow.
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.5);
}

TEST(Histogram, BoundaryFallsInUpperBucket) {
  // The paper's frame-size bins are [lo, hi): 1519 must land in the
  // 1519-2047 bucket, not 1024-1518.
  archive::HistCounts h({1024, 1519, 2048});
  h.add(1519);
  EXPECT_EQ(h.counts[0], 0u);
  EXPECT_EQ(h.counts[1], 1u);
}

TEST(Histogram, PaperFrameSizeBinsLabel) {
  archive::HistCounts h({64, 65, 128});
  EXPECT_EQ(h.bucket_label(1), "[65, 128)");
}

TEST(Log2Histogram, BucketBoundaries) {
  Log2Histogram h;
  h.add(1);     // [1,2)    k=0
  h.add(2);     // [2,4)    k=1
  h.add(3);     // [2,4)    k=1
  h.add(1024);  // [1024,2048) k=10
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(10), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Log2Histogram, RoundedUpSumUsesUpperBound) {
  Log2Histogram h;
  // The paper: a latency in [32K, 64K) ns counts as 64K ns.
  h.add(40000);
  EXPECT_EQ(h.rounded_up_sum(), 65536u);
}

TEST(Log2Histogram, RoundedUpSumAboveExcludesFastBuckets) {
  Log2Histogram h;
  h.add(1000);    // ~2^10 bucket: excluded below.
  h.add(50000);   // [32768, 65536): included.
  h.add(200000);  // [131072, 262144): included.
  EXPECT_EQ(h.rounded_up_sum_above(32768), 65536u + 262144u);
  EXPECT_GT(h.rounded_up_sum(), h.rounded_up_sum_above(32768));
}

TEST(Log2Histogram, ExactSumTracksRawValues) {
  Log2Histogram h;
  h.add(10, 3);
  h.add(100);
  EXPECT_EQ(h.exact_sum(), 130u);
}

TEST(Log2Histogram, ZeroValueLandsInFirstBucket) {
  Log2Histogram h;
  h.add(0);
  EXPECT_EQ(h.bucket(0), 1u);
}

}  // namespace
}  // namespace patchwork::util
