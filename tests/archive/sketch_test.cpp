#include "archive/sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace patchwork::archive {
namespace {

using Entry = TopFlowSketch::Entry;

// Reference model: the sort-per-insert space-saving insert the builder's
// heap replaced. Once full, every insert sorts all entries canonically and
// evicts the last one.
class ReferenceSketch {
 public:
  explicit ReferenceSketch(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void insert(const std::string& key, std::uint64_t count) {
    for (Entry& e : entries_) {
      if (e.key == key) {
        e.count += count;
        return;
      }
    }
    if (entries_.size() < capacity_) {
      entries_.push_back({key, floor_ + count, floor_});
      return;
    }
    canonicalize();
    const std::uint64_t evicted = entries_.back().count;
    floor_ = std::max(floor_, evicted);
    entries_.back() = {key, evicted + count, evicted};
  }

  const std::vector<Entry>& entries() {
    canonicalize();
    return entries_;
  }
  std::uint64_t floor() const { return floor_; }

 private:
  void canonicalize() {
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) {
                if (a.count != b.count) return a.count > b.count;
                if (a.error != b.error) return a.error < b.error;
                return a.key < b.key;
              });
  }

  std::size_t capacity_;
  std::uint64_t floor_ = 0;
  std::vector<Entry> entries_;
};

TopFlowSketch build(std::size_t capacity,
                    const std::vector<std::pair<std::string, std::uint64_t>>&
                        inserts) {
  TopFlowSketch::Builder builder(capacity);
  for (const auto& [key, count] : inserts) builder.insert(key, count);
  return std::move(builder).build();
}

TEST(TopFlowSketch, ExactUnderCapacity) {
  const TopFlowSketch sketch =
      build(8, {{"a", 100}, {"b", 50}, {"c", 150},
                {"a", 10}});  // Repeat insert accumulates.

  const auto top = sketch.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, "c");
  EXPECT_EQ(top[0].count, 150u);
  EXPECT_EQ(top[0].error, 0u);
  EXPECT_EQ(top[1].key, "a");
  EXPECT_EQ(top[1].count, 110u);
  EXPECT_EQ(sketch.floor(), 0u);
}

TEST(TopFlowSketch, EvictionRaisesFloorAndKeepsBound) {
  const TopFlowSketch sketch = build(
      2, {{"a", 100},
          {"b", 50},
          {"c", 10}});  // Evicts b (count 50): c enters at 60, error 50.

  const auto& entries = sketch.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, "a");
  EXPECT_EQ(entries[1].key, "c");
  EXPECT_EQ(entries[1].count, 60u);
  EXPECT_EQ(entries[1].error, 50u);
  EXPECT_EQ(sketch.floor(), 50u);
  // Space-saving bound: true(c)=10 <= 60 <= 10 + 50.
  EXPECT_LE(10u, entries[1].count);
  EXPECT_LE(entries[1].count - entries[1].error, 10u);
}

TEST(TopFlowSketch, CanonicalOrderBreaksTiesDeterministically) {
  const TopFlowSketch sketch =
      build(8, {{"zeta", 10}, {"alpha", 10}, {"mid", 10}});
  const auto& entries = sketch.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].key, "alpha");
  EXPECT_EQ(entries[1].key, "mid");
  EXPECT_EQ(entries[2].key, "zeta");
}

TEST(TopFlowSketch, MergeSumsSharedKeysAndChargesFloorsForAbsentOnes) {
  TopFlowSketch a = build(4, {{"x", 100}, {"only_a", 30}});
  const TopFlowSketch b = build(4, {{"x", 60}, {"only_b", 40}});

  a.merge(b);
  std::map<std::string, TopFlowSketch::Entry> by_key;
  for (const auto& e : a.entries()) by_key[e.key] = e;
  ASSERT_EQ(by_key.size(), 3u);
  // Both floors are 0, so sums are exact.
  EXPECT_EQ(by_key["x"].count, 160u);
  EXPECT_EQ(by_key["x"].error, 0u);
  EXPECT_EQ(by_key["only_a"].count, 30u);
  EXPECT_EQ(by_key["only_b"].count, 40u);
  EXPECT_EQ(a.floor(), 0u);
}

TEST(TopFlowSketch, MergeIsExactWhileUnderCapacity) {
  // With no truncation, any merge grouping is per-key summation — compare
  // left fold against a direct multiset sum.
  util::Rng rng(7);
  std::vector<TopFlowSketch> parts;
  std::map<std::string, std::uint64_t> truth;
  for (int p = 0; p < 4; ++p) {
    TopFlowSketch::Builder s(64);
    for (int i = 0; i < 10; ++i) {
      const std::string key = "flow" + std::to_string(rng.uniform_u64(0, 15));
      const std::uint64_t bytes = rng.uniform_u64(1, 1000);
      s.insert(key, bytes);
      truth[key] += bytes;
    }
    parts.push_back(std::move(s).build());
  }
  TopFlowSketch fold = parts[0];
  for (std::size_t i = 1; i < parts.size(); ++i) fold.merge(parts[i]);
  ASSERT_EQ(fold.size(), truth.size());
  for (const auto& e : fold.entries()) {
    EXPECT_EQ(e.count, truth.at(e.key)) << e.key;
    EXPECT_EQ(e.error, 0u) << e.key;
  }
}

TEST(TopFlowSketch, MergeUnderTruncationKeepsSpaceSavingBound) {
  util::Rng rng(99);
  std::map<std::string, std::uint64_t> truth;
  std::vector<TopFlowSketch> parts;
  for (int p = 0; p < 6; ++p) {
    TopFlowSketch::Builder s(8);  // Far smaller than the key universe.
    for (int i = 0; i < 40; ++i) {
      const std::string key = "k" + std::to_string(rng.uniform_u64(0, 63));
      const std::uint64_t bytes = rng.uniform_u64(1, 500);
      s.insert(key, bytes);
      truth[key] += bytes;
    }
    parts.push_back(std::move(s).build());
  }
  TopFlowSketch fold = parts[0];
  for (std::size_t i = 1; i < parts.size(); ++i) fold.merge(parts[i]);

  EXPECT_LE(fold.size(), 8u);
  for (const auto& e : fold.entries()) {
    const std::uint64_t true_count = truth.at(e.key);
    EXPECT_GE(e.count, true_count) << e.key << ": count must overestimate";
    EXPECT_LE(e.count - e.error, true_count)
        << e.key << ": count-error must underestimate";
    EXPECT_GE(e.count, fold.floor());
  }
}

TEST(TopFlowSketch, FromPartsRoundTripsEquality) {
  const TopFlowSketch sketch = build(4, {{"a", 10}, {"b", 20}});
  const TopFlowSketch rebuilt = TopFlowSketch::from_parts(
      sketch.capacity(), sketch.floor(), sketch.entries());
  EXPECT_TRUE(sketch == rebuilt);
}

TEST(TopFlowSketch, FromPartsCanonicalizesUnsortedInput) {
  const TopFlowSketch sketch = build(4, {{"a", 10}, {"b", 20}, {"c", 20}});
  std::vector<Entry> reversed(sketch.entries().rbegin(),
                              sketch.entries().rend());
  const TopFlowSketch rebuilt =
      TopFlowSketch::from_parts(4, sketch.floor(), std::move(reversed));
  EXPECT_EQ(rebuilt.entries(), sketch.entries());
}

TEST(TopFlowSketch, BuilderMatchesSortPerInsertReference) {
  // Seeded streams with repeated keys, zero counts, and ties on count and
  // on error (small counts collide; each eviction's inherited floor becomes
  // an error that later evictions repeat). Every stream is at least 100x
  // the capacity, so the sketch is full and evicting for most of it.
  for (const std::size_t capacity : {0, 1, 2, 7, 256}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      util::Rng rng(seed * 1000 + capacity);
      const std::size_t slots = std::max<std::size_t>(capacity, 1);
      const std::uint64_t universe = 3 * slots + 2;
      const std::size_t inserts = 100 * slots + 17;
      ReferenceSketch reference(capacity);
      TopFlowSketch::Builder builder(capacity);
      for (std::size_t i = 0; i < inserts; ++i) {
        // Half the picks come from a hot tenth of the keys, so keys both
        // stay resident and re-enter after eviction.
        const std::uint64_t hot = universe / 10 + 1;
        const std::uint64_t id = rng.chance(0.5)
                                     ? rng.uniform_u64(0, hot - 1)
                                     : rng.uniform_u64(0, universe - 1);
        const std::string key = "k" + std::to_string(id);
        const std::uint64_t count =
            rng.chance(0.1) ? 0
                            : (rng.chance(0.7) ? rng.uniform_u64(1, 3)
                                               : rng.uniform_u64(1, 1000));
        reference.insert(key, count);
        builder.insert(key, count);
      }
      const TopFlowSketch sketch = std::move(builder).build();
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " +
                   std::to_string(seed));
      EXPECT_EQ(sketch.entries(), reference.entries());
      EXPECT_EQ(sketch.floor(), reference.floor());
      EXPECT_EQ(sketch.capacity(), slots);
    }
  }
}

}  // namespace
}  // namespace patchwork::archive
