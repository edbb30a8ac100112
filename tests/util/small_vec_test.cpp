#include "util/small_vec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace patchwork::util {
namespace {

using Vec = SmallVec<std::uint16_t, 4>;

Vec iota(std::size_t n, std::uint16_t first = 0) {
  Vec v;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<std::uint16_t>(first + i));
  }
  return v;
}

std::vector<std::uint16_t> as_vector(const Vec& v) {
  return std::vector<std::uint16_t>(v.begin(), v.end());
}

std::vector<std::uint16_t> iota_vector(std::size_t n, std::uint16_t first = 0) {
  return as_vector(iota(n, first));
}

TEST(SmallVec, StaysInlineAtCapacityAndSpillsPastIt) {
  Vec v;
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(v.spilled());
  for (std::uint16_t i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_FALSE(v.spilled());
  v.push_back(4);
  EXPECT_TRUE(v.spilled());
  EXPECT_EQ(as_vector(v), (std::vector<std::uint16_t>{0, 1, 2, 3, 4}));
  for (std::uint16_t i = 5; i < 1000; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 1000u);
  for (std::size_t i = 0; i < v.size(); ++i) ASSERT_EQ(v[i], i);
  EXPECT_EQ(v.front(), 0);
  EXPECT_EQ(v.back(), 999);
}

TEST(SmallVec, PushBackOfOwnElementSurvivesTheSpill) {
  Vec v = iota(4, 7);
  v.push_back(v[0]);  // The inline slot is read before the spill.
  Vec w = iota(8, 1);
  w.push_back(w[2]);  // The heap block is replaced by a larger one.
  EXPECT_EQ(as_vector(v), (std::vector<std::uint16_t>{7, 8, 9, 10, 7}));
  EXPECT_EQ(w.back(), 3);
}

TEST(SmallVec, CopiesInlineAndSpilledValues) {
  for (std::size_t n : {0u, 3u, 4u, 5u, 40u}) {
    const Vec source = iota(n, 10);
    const Vec copy(source);
    EXPECT_EQ(copy, source) << n;
    EXPECT_EQ(copy.spilled(), n > 4) << n;
    EXPECT_NE(copy.data(), source.data()) << n;

    // Into an inline and into a spilled destination.
    for (std::size_t m : {2u, 30u}) {
      Vec dest = iota(m, 100);
      dest = source;
      EXPECT_EQ(as_vector(dest), iota_vector(n, 10)) << n << " over " << m;
      EXPECT_EQ(as_vector(source), iota_vector(n, 10)) << n;
    }
  }
}

TEST(SmallVec, MovesInlineAndSpilledValues) {
  for (std::size_t n : {0u, 3u, 4u, 5u, 40u}) {
    Vec source = iota(n, 10);
    const std::uint16_t* heap = source.data();
    Vec moved(std::move(source));
    EXPECT_EQ(as_vector(moved), iota_vector(n, 10)) << n;
    if (n > 4) {
      EXPECT_EQ(moved.data(), heap) << n;  // The block moved.
    }
    EXPECT_TRUE(source.empty()) << n;
    EXPECT_FALSE(source.spilled()) << n;
    source.push_back(1);  // A moved-from value is usable.
    EXPECT_EQ(as_vector(source), (std::vector<std::uint16_t>{1}));

    for (std::size_t m : {2u, 30u}) {
      Vec from = iota(n, 10);
      Vec dest = iota(m, 100);
      dest = std::move(from);
      EXPECT_EQ(as_vector(dest), iota_vector(n, 10)) << n << " over " << m;
      EXPECT_TRUE(from.empty()) << n;
    }
  }
}

TEST(SmallVec, SelfAssignmentKeepsTheValue) {
  for (std::size_t n : {0u, 3u, 40u}) {
    Vec v = iota(n, 5);
    Vec& alias = v;
    v = alias;
    EXPECT_EQ(as_vector(v), iota_vector(n, 5)) << n;
    v = std::move(alias);
    EXPECT_EQ(as_vector(v), iota_vector(n, 5)) << n;
  }
}

TEST(SmallVec, InitializerListAssignsAndClears) {
  Vec v = iota(30);
  v = {9, 8};
  EXPECT_EQ(as_vector(v), (std::vector<std::uint16_t>{9, 8}));
  v = {};
  EXPECT_TRUE(v.empty());
  const Vec w{1, 2, 3, 4, 5, 6};
  EXPECT_EQ(as_vector(w), (std::vector<std::uint16_t>{1, 2, 3, 4, 5, 6}));
}

TEST(SmallVec, ComparisonAgreesWithVector) {
  // Every sequence over {0, 1, 2} of length 0..5, so pairs mix inline and
  // spilled values, equal prefixes and different lengths.
  std::vector<std::vector<std::uint16_t>> all{{}};
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].size() == 5) continue;
    for (std::uint16_t x = 0; x < 3; ++x) {
      std::vector<std::uint16_t> next = all[i];
      next.push_back(x);
      all.push_back(std::move(next));
    }
  }
  std::vector<Vec> small;
  for (const auto& seq : all) {
    Vec v;
    for (std::uint16_t x : seq) v.push_back(x);
    small.push_back(std::move(v));
  }
  for (std::size_t a = 0; a < all.size(); ++a) {
    for (std::size_t b = 0; b < all.size(); ++b) {
      ASSERT_EQ(small[a] == small[b], all[a] == all[b]) << a << " " << b;
      ASSERT_EQ(small[a] < small[b], all[a] < all[b]) << a << " " << b;
    }
  }
}

}  // namespace
}  // namespace patchwork::util
