#include "archive/sketch.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

namespace patchwork::archive {

namespace {

bool canonical_less(const TopFlowSketch::Entry& a,
                    const TopFlowSketch::Entry& b) {
  if (a.count != b.count) return a.count > b.count;
  if (a.error != b.error) return a.error < b.error;
  return a.key < b.key;
}

// Whether any key appears twice: an open-addressed set of entry indices,
// one hash per key (valid_parts runs on every decoded record). Linear
// probing that runs long (crafted hash collisions) falls back to sorting
// the keys, so hostile input stays O(n log n).
bool has_duplicate_keys(const std::vector<TopFlowSketch::Entry>& entries) {
  const std::size_t slots = std::bit_ceil(2 * entries.size() + 1);
  std::vector<std::uint32_t> table(slots, 0);  // Entry index + 1; 0 = free.
  const std::size_t mask = slots - 1;
  std::size_t probes = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::size_t h = std::hash<std::string_view>{}(entries[i].key) & mask;
    for (; table[h] != 0; h = (h + 1) & mask) {
      if (entries[table[h] - 1].key == entries[i].key) return true;
      if (++probes > 4 * entries.size()) {
        std::vector<std::string_view> keys;
        keys.reserve(entries.size());
        for (const TopFlowSketch::Entry& e : entries) keys.push_back(e.key);
        std::sort(keys.begin(), keys.end());
        return std::adjacent_find(keys.begin(), keys.end()) != keys.end();
      }
    }
    table[h] = static_cast<std::uint32_t>(i + 1);
  }
  return false;
}

}  // namespace

TopFlowSketch::Builder::Builder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

// heap_ is a max-heap under canonical order: every parent comes canonically
// after its children, so the root is the entry a full sort would leave
// last. Keys are unique, so that entry — the eviction victim — is unique.
void TopFlowSketch::Builder::swap_nodes(std::size_t a, std::size_t b) {
  std::swap(heap_[a], heap_[b]);
  heap_[a]->heap_pos = a;
  heap_[b]->heap_pos = b;
}

void TopFlowSketch::Builder::sift_up(std::size_t pos) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!canonical_less(heap_[parent]->entry, heap_[pos]->entry)) return;
    swap_nodes(parent, pos);
    pos = parent;
  }
}

void TopFlowSketch::Builder::sift_down(std::size_t pos) {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t last = pos;
    for (const std::size_t child : {2 * pos + 1, 2 * pos + 2}) {
      if (child < n && canonical_less(heap_[last]->entry,
                                      heap_[child]->entry)) {
        last = child;
      }
    }
    if (last == pos) return;
    swap_nodes(pos, last);
    pos = last;
  }
}

void TopFlowSketch::Builder::insert(std::string key, std::uint64_t count) {
  if (const auto it = index_.find(key); it != index_.end()) {
    // A larger count moves the entry canonically earlier: away from the
    // root.
    Slot& slot = *it->second;
    slot.entry.count += count;
    sift_down(slot.heap_pos);
    return;
  }
  if (slots_.size() < capacity_) {
    Slot& slot = slots_.emplace_back(
        Slot{{std::move(key), floor_ + count, floor_}, heap_.size()});
    heap_.push_back(&slot);
    index_.emplace(slot.entry.key, &slot);
    sift_up(slot.heap_pos);
    return;
  }
  // Evict the weakest entry (space-saving): the newcomer inherits its
  // count as a floor and takes its slot.
  Slot& victim = *heap_.front();
  const std::uint64_t evicted = victim.entry.count;
  floor_ = std::max(floor_, evicted);
  index_.erase(victim.entry.key);
  victim.entry = {std::move(key), evicted + count, evicted};
  index_.emplace(victim.entry.key, &victim);
  sift_down(0);
}

TopFlowSketch TopFlowSketch::Builder::build() && {
  TopFlowSketch sketch(capacity_);
  sketch.floor_ = floor_;
  sketch.entries_.reserve(slots_.size());
  for (Slot& slot : slots_) sketch.entries_.push_back(std::move(slot.entry));
  std::sort(sketch.entries_.begin(), sketch.entries_.end(), canonical_less);
  return sketch;
}

TopFlowSketch::TopFlowSketch(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void TopFlowSketch::merge(const TopFlowSketch& other) {
  // Union-sum via a key-sorted join: counts and errors add per key; a key
  // absent from one side contributes that side's floor as both count and
  // error (its true count there is in [0, floor]).
  const auto key_less = [](const Entry& x, const Entry& y) {
    return x.key < y.key;
  };
  std::vector<Entry> a = entries_;
  std::vector<Entry> b = other.entries_;
  std::sort(a.begin(), a.end(), key_less);
  std::sort(b.begin(), b.end(), key_less);
  std::vector<Entry> merged;
  merged.reserve(a.size() + b.size());
  std::size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i].key < b[j].key)) {
      merged.push_back(
          {a[i].key, a[i].count + other.floor_, a[i].error + other.floor_});
      ++i;
    } else if (i == a.size() || b[j].key < a[i].key) {
      merged.push_back(
          {b[j].key, b[j].count + floor_, b[j].error + floor_});
      ++j;
    } else {
      merged.push_back({a[i].key, a[i].count + b[j].count,
                        a[i].error + b[j].error});
      ++i;
      ++j;
    }
  }
  std::sort(merged.begin(), merged.end(), canonical_less);
  std::uint64_t new_floor = floor_ + other.floor_;
  if (merged.size() > capacity_) {
    new_floor = std::max(new_floor, merged[capacity_].count);
    merged.resize(capacity_);
  }
  floor_ = new_floor;
  entries_ = std::move(merged);
}

std::vector<TopFlowSketch::Entry> TopFlowSketch::top(std::size_t k) const {
  return std::vector<Entry>(
      entries_.begin(),
      entries_.begin() +
          static_cast<std::ptrdiff_t>(std::min(k, entries_.size())));
}

bool TopFlowSketch::valid_parts(std::size_t capacity,
                                const std::vector<Entry>& entries) {
  if (!entries.empty() && (capacity == 0 || entries.size() > capacity)) {
    return false;
  }
  for (const Entry& e : entries) {
    if (e.error > e.count) return false;
  }
  return !has_duplicate_keys(entries);
}

TopFlowSketch TopFlowSketch::from_parts(std::size_t capacity,
                                        std::uint64_t floor,
                                        std::vector<Entry> entries) {
  TopFlowSketch s(std::max(capacity, entries.size()));
  s.floor_ = floor;
  s.entries_ = std::move(entries);
  if (!std::is_sorted(s.entries_.begin(), s.entries_.end(), canonical_less)) {
    std::sort(s.entries_.begin(), s.entries_.end(), canonical_less);
  }
  return s;
}

}  // namespace patchwork::archive
