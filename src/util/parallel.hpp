// parallel_for / parallel_map: strands on a TaskGroup of the shared
// process-lifetime ThreadPool.
//
// Both primitives are *deterministic by construction*: every index writes
// only its own output slot, so results are identical to the serial loop for
// any thread count. Indices are handed out through an atomic cursor
// (dynamic scheduling) — cheap indices don't idle strands behind an
// expensive one, and because results land by index, the schedule never
// shows in the output.
//
// A call spawns min(thread_count(), n) - 1 strand tasks, each draining the
// cursor, and runs one more strand on the calling thread, so it makes
// progress even when every worker is busy. It then waits on its own group,
// which helps only with its own strands: a parallel_for nested in another's
// body fans out across idle workers too, and cannot deadlock, because no
// waiter ever picks up work that could wait on it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "util/thread_pool.hpp"

namespace patchwork::util {

/// Invoke fn(i) for every i in [0, n) over min(thread_count(), n) strands,
/// one of which runs on the calling thread. Blocks until all indices
/// complete. An exception thrown by fn(i) is rethrown on the calling
/// thread once every strand has drained. Runs serially when
/// thread_count() <= 1 or n <= 1.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  const std::size_t strands = std::min(thread_count(), n);
  if (strands <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  auto strand = [&cursor, n, &fn] {
    for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
         i < n; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  ThreadPool& pool = shared_pool();
  pool.ensure_size(strands - 1);  // The caller itself runs the last strand.
  TaskGroup group(pool);
  for (std::size_t s = 1; s < strands; ++s) {
    group.spawn([&strand] { strand(); });
  }
  // Should the caller's strand throw, ~TaskGroup drains the spawned
  // strands before the exception leaves the frame they point into.
  strand();
  group.wait();
}

/// Map fn over `items`, preserving input order in the result vector.
/// The result type must be default-constructible (slots are pre-allocated
/// so workers never contend on the output container).
template <typename T, typename Fn>
auto parallel_map(const std::vector<T>& items, Fn&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, const T&>>> {
  std::vector<std::decay_t<std::invoke_result_t<Fn&, const T&>>> out(
      items.size());
  parallel_for(items.size(), [&](std::size_t i) { out[i] = fn(items[i]); });
  return out;
}

}  // namespace patchwork::util
