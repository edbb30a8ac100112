#include "archive/sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace patchwork::archive {
namespace {

using Entry = TopFlowSketch::Entry;

bool canonical_less(const Entry& a, const Entry& b) {
  if (a.count != b.count) return a.count > b.count;
  if (a.error != b.error) return a.error < b.error;
  return a.key < b.key;
}

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
    std::sort(entries_.begin(), entries_.end(), canonical_less);
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

// Reference model: the plain copy-and-sort merge. It copies both sides,
// key-sorts the copies, joins them, sorts the union canonically and
// truncates it at the receiving sketch's capacity.
struct Merged {
  std::uint64_t floor = 0;
  std::vector<Entry> entries;
  bool truncated = false;  ///< The union exceeded the capacity.
};

Merged reference_merge(const TopFlowSketch& into, const TopFlowSketch& other) {
  const auto key_less = [](const Entry& x, const Entry& y) {
    return x.key < y.key;
  };
  std::vector<Entry> a = into.entries();
  std::vector<Entry> b = other.entries();
  std::sort(a.begin(), a.end(), key_less);
  std::sort(b.begin(), b.end(), key_less);
  Merged out;
  std::vector<Entry>& merged = out.entries;
  std::size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i].key < b[j].key)) {
      merged.push_back({a[i].key, a[i].count + other.floor(),
                        a[i].error + other.floor()});
      ++i;
    } else if (i == a.size() || b[j].key < a[i].key) {
      merged.push_back({b[j].key, b[j].count + into.floor(),
                        b[j].error + into.floor()});
      ++j;
    } else {
      merged.push_back({a[i].key, a[i].count + b[j].count,
                        a[i].error + b[j].error});
      ++i;
      ++j;
    }
  }
  std::sort(merged.begin(), merged.end(), canonical_less);
  out.floor = into.floor() + other.floor();
  if (merged.size() > into.capacity()) {
    out.floor = std::max(out.floor, merged[into.capacity()].count);
    merged.resize(into.capacity());
    out.truncated = true;
  }
  return out;
}

/// A sketch of `size` entries keyed `prefix` + one of `ids`, built from
/// parts. Counts, errors and floors come from small ranges, so entries tie
/// on count and on error, and merged entries tie again after the floors
/// are added.
TopFlowSketch random_sketch(util::Rng& rng, std::size_t capacity,
                            std::size_t size, const std::string& prefix,
                            std::vector<std::uint64_t> ids) {
  rng.shuffle(ids);
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < size && i < ids.size(); ++i) {
    const std::uint64_t count = rng.uniform_u64(1, 6);
    entries.push_back({prefix + std::to_string(ids[i]), count,
                       rng.uniform_u64(0, std::min<std::uint64_t>(count, 3))});
  }
  const std::uint64_t floor = rng.chance(0.5) ? 0 : rng.uniform_u64(1, 4);
  return TopFlowSketch::from_parts(capacity, floor, std::move(entries));
}

std::vector<std::uint64_t> iota_ids(std::uint64_t n) {
  std::vector<std::uint64_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

TEST(TopFlowSketch, MergeMatchesCopySortReference) {
  std::size_t over_capacity = 0, under_capacity = 0;
  std::size_t count_ties = 0, error_ties = 0;
  const auto expect_match = [&](TopFlowSketch into,
                                const TopFlowSketch& other) {
    const Merged expected = reference_merge(into, other);
    ++(expected.truncated ? over_capacity : under_capacity);
    for (std::size_t i = 1; i < expected.entries.size(); ++i) {
      const Entry& prev = expected.entries[i - 1];
      const Entry& next = expected.entries[i];
      if (prev.count == next.count) {
        ++count_ties;
        if (prev.error == next.error) ++error_ties;
      }
    }
    into.merge(other);
    EXPECT_EQ(into.floor(), expected.floor);
    EXPECT_EQ(into.entries(), expected.entries);
  };

  // Disjoint, overlapping and identical key sets at equal and unequal
  // capacities, each side anywhere from empty to full.
  const std::vector<std::pair<std::size_t, std::size_t>> capacities = {
      {1, 1}, {3, 3}, {8, 8}, {8, 3}, {3, 8}, {16, 5}, {256, 256}};
  for (const auto& [cap_a, cap_b] : capacities) {
    for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
      util::Rng rng(seed * 1000 + cap_a * 10 + cap_b);
      const std::size_t size_a = rng.uniform_u64(0, cap_a);
      const std::size_t size_b = rng.uniform_u64(0, cap_b);
      const std::uint64_t universe = 3 * std::max(cap_a, cap_b) / 2 + 1;
      SCOPED_TRACE("capacities " + std::to_string(cap_a) + "/" +
                   std::to_string(cap_b) + " seed " + std::to_string(seed));
      {
        SCOPED_TRACE("disjoint");
        expect_match(random_sketch(rng, cap_a, size_a, "a", iota_ids(cap_a)),
                     random_sketch(rng, cap_b, size_b, "b", iota_ids(cap_b)));
      }
      {
        SCOPED_TRACE("overlapping");
        expect_match(
            random_sketch(rng, cap_a, size_a, "k", iota_ids(universe)),
            random_sketch(rng, cap_b, size_b, "k", iota_ids(universe)));
      }
      {
        SCOPED_TRACE("identical");
        const std::size_t size = std::min(cap_a, cap_b);
        std::vector<std::uint64_t> ids = iota_ids(universe);
        rng.shuffle(ids);
        ids.resize(size);
        expect_match(random_sketch(rng, cap_a, size, "k", ids),
                     random_sketch(rng, cap_b, size, "k", ids));
      }
      {
        SCOPED_TRACE("empty side");
        const TopFlowSketch full =
            random_sketch(rng, cap_a, cap_a, "k", iota_ids(universe));
        expect_match(full, TopFlowSketch(cap_b));
        expect_match(TopFlowSketch(cap_a), full);
      }
      {
        SCOPED_TRACE("self");
        const TopFlowSketch s =
            random_sketch(rng, cap_a, size_a, "k", iota_ids(universe));
        const Merged expected = reference_merge(s, s);
        TopFlowSketch self = s;
        self.merge(self);
        EXPECT_EQ(self.floor(), expected.floor);
        EXPECT_EQ(self.entries(), expected.entries);
      }
    }
  }

  // A 20-sketch left fold of streamed sketches over one key universe, as
  // the query layer and the compactor fold records oldest first.
  for (const std::uint64_t seed : {1, 2, 3}) {
    util::Rng rng(seed);
    std::vector<TopFlowSketch> parts;
    for (int p = 0; p < 20; ++p) {
      TopFlowSketch::Builder builder(32);
      for (int i = 0; i < 80; ++i) {
        builder.insert("f" + std::to_string(rng.uniform_u64(0, 99)),
                       rng.chance(0.5) ? rng.uniform_u64(1, 3)
                                       : rng.uniform_u64(1, 400));
      }
      parts.push_back(std::move(builder).build());
    }
    SCOPED_TRACE("fold seed " + std::to_string(seed));
    TopFlowSketch fold = parts.front();
    TopFlowSketch reference = parts.front();
    for (std::size_t i = 1; i < parts.size(); ++i) {
      const Merged expected = reference_merge(reference, parts[i]);
      reference = TopFlowSketch::from_parts(
          reference.capacity(), expected.floor, expected.entries);
      fold.merge(parts[i]);
      EXPECT_EQ(fold.floor(), reference.floor()) << "after part " << i;
      EXPECT_EQ(fold.entries(), reference.entries()) << "after part " << i;
    }
  }

  // The seeded cases reach every shape the merge distinguishes.
  EXPECT_GT(over_capacity, 0u);
  EXPECT_GT(under_capacity, 0u);
  EXPECT_GT(count_ties, 0u);
  EXPECT_GT(error_ties, 0u);
}

}  // namespace
}  // namespace patchwork::archive
