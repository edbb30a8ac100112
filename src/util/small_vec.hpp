// A vector with inline storage for its first N elements.
//
// The dissector and the Digest step keep a few short lists per frame: the
// header stack, the VLAN tags, the MPLS labels. As std::vectors they cost
// a heap block each per dissected frame and per digested record. A
// SmallVec holds up to N elements inside the object and moves them to one
// heap block only when a push goes past N, so the usual frame allocates
// nothing and an arbitrarily deep one stays exact.
//
// Elements must be trivially copyable: they are moved with memcpy. They
// are appended and read, never edited in place; a list is replaced by
// assignment. There is deliberately no conversion to std::vector, which
// would allocate.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>

namespace patchwork::util {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec moves its elements with memcpy");
  static_assert(N > 0 && N <= std::numeric_limits<std::uint32_t>::max());

 public:
  using value_type = T;
  using iterator = const T*;
  using const_iterator = const T*;

  SmallVec() noexcept = default;
  SmallVec(std::initializer_list<T> init) { append(init.begin(), init.size()); }
  SmallVec(const SmallVec& other) { append(other.data_, other.size_); }
  SmallVec(SmallVec&& other) noexcept { take(other); }
  ~SmallVec() { release(); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      size_ = 0;
      append(other.data_, other.size_);
    }
    return *this;
  }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  SmallVec& operator=(std::initializer_list<T> init) {
    size_ = 0;
    append(init.begin(), init.size());
    return *this;
  }

  void push_back(const T& value) {
    const T copy = value;  // `value` may live in the block grow() frees.
    if (size_ == capacity_) grow(std::size_t{size_} + 1);
    ::new (static_cast<void*>(data_ + size_)) T(copy);
    ++size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// True once the elements have moved to the heap.
  bool spilled() const { return data_ != inline_data(); }

  const T* data() const { return data_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  const T& front() const { return data_[0]; }
  const T& back() const { return data_[size_ - 1]; }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  /// Lexicographic, like std::vector's.
  friend auto operator<=>(const SmallVec& a, const SmallVec& b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

 private:
  static constexpr std::size_t kMaxSize =
      std::numeric_limits<std::uint32_t>::max();

  T* inline_data() { return std::launder(reinterpret_cast<T*>(inline_)); }
  const T* inline_data() const {
    return std::launder(reinterpret_cast<const T*>(inline_));
  }

  void append(const T* src, std::size_t n) {
    if (n == 0) return;
    if (n > kMaxSize - size_) throw std::length_error("SmallVec too long");
    if (size_ + n > capacity_) grow(size_ + n);
    std::memcpy(data_ + size_, src, n * sizeof(T));
    size_ += static_cast<std::uint32_t>(n);
  }

  /// Move the elements to a heap block of at least `need` slots.
  void grow(std::size_t need) {
    if (need > kMaxSize) throw std::length_error("SmallVec too long");
    const std::size_t cap =
        std::clamp<std::size_t>(2 * std::size_t{capacity_}, need, kMaxSize);
    T* heap = std::allocator<T>{}.allocate(cap);
    if (size_ > 0) std::memcpy(heap, data_, size_ * sizeof(T));
    release();
    data_ = heap;
    capacity_ = static_cast<std::uint32_t>(cap);
  }

  void release() noexcept {
    if (spilled()) std::allocator<T>{}.deallocate(data_, capacity_);
  }

  /// Take `other`'s elements, leaving it empty and inline. `this` holds
  /// no heap block.
  void take(SmallVec& other) noexcept {
    if (other.spilled()) {
      data_ = other.data_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_data();
      other.capacity_ = N;
    } else {
      data_ = inline_data();
      capacity_ = N;
      if (other.size_ > 0) {
        std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
      }
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  T* data_ = inline_data();
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
  alignas(T) unsigned char inline_[N * sizeof(T)];
};

}  // namespace patchwork::util
