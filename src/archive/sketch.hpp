// Mergeable top-K flow summary (space-saving style).
//
// Each epoch records its heaviest flows here so the archive can answer
// "which flows persist across months" without keeping every flow key ever
// seen. The summary keeps at most `capacity` entries; evictions raise a
// floor that future counts inherit, preserving the space-saving invariant
//   true_count <= count  and  count - error <= true_count.
//
// A TopFlowSketch is canonical at rest: its entries are always sorted
// (count desc, error asc, key asc), so every const member is a plain read
// and concurrent readers of one sketch are safe. Sketches are built by
// TopFlowSketch::Builder, which keeps its entries in a heap whose root is
// the canonically-last entry — the space-saving eviction victim — so an
// insert costs O(log K) and the one sort happens in build().
//
// Merging is a fold: counts and errors add per key; a key absent from one
// side contributes that side's floor (its count there is unknown but
// bounded by the floor). While no merge overflows `capacity`, the fold is
// exact per-key summation — associative and commutative, so any compaction
// grouping yields identical top-K answers. Once truncation kicks in the
// merge is order-sensitive; the compactor and the query layer both fold
// oldest-first so a single prefix rollup still reproduces the raw query's
// fold exactly, and arbitrary groupings stay within the space-saving bound
//   true_count <= count <= true_count + error.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace patchwork::archive {

class TopFlowSketch {
 public:
  struct Entry {
    std::string key;          ///< Canonical flow string (FlowKey::to_string).
    std::uint64_t count = 0;  ///< Overestimate of the flow's bytes.
    std::uint64_t error = 0;  ///< Max overcount (count - error is certain).

    bool operator==(const Entry&) const = default;
  };

  /// Accumulates inserts into a sketch. Not copyable: heap_ and index_
  /// point into the builder's own slots.
  class Builder {
   public:
    explicit Builder(std::size_t capacity);
    Builder(const Builder&) = delete;
    Builder& operator=(const Builder&) = delete;

    /// Record `count` for `key` (an exact per-epoch total at extraction
    /// time; inserts of an evicted key re-enter at floor + count).
    void insert(std::string key, std::uint64_t count);

    /// The canonical sketch of everything inserted so far.
    TopFlowSketch build() &&;

   private:
    struct Slot {
      Entry entry;
      std::size_t heap_pos = 0;
    };

    void sift_up(std::size_t pos);
    void sift_down(std::size_t pos);
    void swap_nodes(std::size_t a, std::size_t b);

    std::size_t capacity_;
    std::uint64_t floor_ = 0;
    std::deque<Slot> slots_;  ///< Stable addresses for index_'s views.
    std::vector<Slot*> heap_;  ///< Root: the canonically-last entry.
    std::unordered_map<std::string_view, Slot*> index_;
  };

  explicit TopFlowSketch(std::size_t capacity = 256);

  /// Fold `other` into this summary (see the merge rule above).
  void merge(const TopFlowSketch& other);

  /// The `k` heaviest entries, count-descending (key-ascending on ties).
  std::vector<Entry> top(std::size_t k) const;

  /// All entries in canonical order (count desc, error asc, key asc) —
  /// the serialization order, so equal summaries encode identically.
  const std::vector<Entry>& entries() const { return entries_; }

  std::size_t capacity() const { return capacity_; }
  std::uint64_t floor() const { return floor_; }
  std::size_t size() const { return entries_.size(); }

  /// Whether serialized parts satisfy the sketch's invariants: entries fit
  /// the declared capacity (capacity 0 with entries is hostile input),
  /// every entry's error bound is at most its count (count - error is the
  /// certain share; a negative certain count cannot come from insert or
  /// merge), and no key appears twice (insert and merge keep one entry per
  /// key; a duplicate would be listed twice by top()). Wire decoders must
  /// check this before from_parts, because a sketch violating these
  /// invariants makes merge() silently wrong.
  static bool valid_parts(std::size_t capacity,
                          const std::vector<Entry>& entries);

  /// Rebuild from serialized parts (record decode), sorting entries that
  /// are not already canonical. Defensive against callers that skipped
  /// valid_parts: an undersized capacity is clamped up to the entry count
  /// so the invariants hold by construction.
  static TopFlowSketch from_parts(std::size_t capacity, std::uint64_t floor,
                                  std::vector<Entry> entries);

  bool operator==(const TopFlowSketch& other) const = default;

 private:
  std::size_t capacity_;
  std::uint64_t floor_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace patchwork::archive
