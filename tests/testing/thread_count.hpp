// Pin util::thread_count() for one test scope.
#pragma once

#include <cstddef>
#include <optional>

#include "util/thread_pool.hpp"

namespace patchwork::testing {

/// Sets the worker count the parallel primitives use, and restores
/// env/hardware resolution when the scope ends.
class ScopedThreadCount {
 public:
  explicit ScopedThreadCount(std::size_t n) { util::set_thread_count(n); }
  ~ScopedThreadCount() { util::set_thread_count(std::nullopt); }

  ScopedThreadCount(const ScopedThreadCount&) = delete;
  ScopedThreadCount& operator=(const ScopedThreadCount&) = delete;
};

}  // namespace patchwork::testing
