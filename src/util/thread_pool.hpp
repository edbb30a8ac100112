// The process's one scheduler — the concurrency substrate for the offline
// analysis pipeline (Fig. 9: Digest -> Index -> Analyze -> Process), the
// online per-(site, sample) render path, and any future subsystem that
// wants multi-core fan-out. Callers reach it through util/parallel.hpp.
//
// Design rules, in priority order:
//   1. Determinism first. The pool never reorders *results*: callers own
//      output slots indexed by task, so byte-identical output falls out of
//      the structure regardless of worker interleaving.
//   2. Serial fallback. A pool of size 0 runs every task inline on the
//      spawning thread — the mode `PATCHWORK_THREADS=0` selects.
//   3. Exceptions propagate. A task that throws surfaces its exception to
//      the thread waiting on its group, never to std::terminate.
//
// Lifecycle: shared_pool() is a lazily-initialized process-lifetime pool
// that grows on demand (workers are spawned once and reused; the pool
// never shrinks). Per-call pools remain constructible for tests.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace patchwork::util {

/// Scheduling telemetry folded from a pool's internal counters. All values
/// are schedule-dependent (wall-clock class in obs terms) except that
/// queue_depth_high_water is guaranteed >= 1 whenever any task was queued
/// behind a worker — it is sampled at enqueue time, after the increment.
struct PoolStats {
  std::uint64_t tasks_submitted = 0;  ///< spawn() calls (inline too).
  std::uint64_t tasks_executed = 0;
  std::uint64_t queue_depth = 0;      ///< Currently enqueued, not yet started.
  std::uint64_t queue_depth_high_water = 0;
  std::uint64_t task_wait_ns_total = 0;  ///< Spawn -> dequeue, summed.
  std::uint64_t task_run_ns_total = 0;   ///< Task body execution, summed.
  std::uint64_t tasks_stolen = 0;  ///< Tasks taken off another worker's
                                   ///< deque (or by a waiter).
};

class ThreadPool;

/// A family of tasks scheduled on a ThreadPool's work-stealing deques.
/// spawn() pushes a task onto a per-worker deque (LIFO for the owner, FIFO
/// for thieves); wait() blocks until every spawned task has finished,
/// *helping* while it waits — the waiting thread runs tasks of this group
/// itself instead of idling.
///
/// Determinism contract: the group imposes no ordering — callers must
/// address output slots (and RNG draws) by task index. Exceptions: the
/// first throwing task wins; wait() rethrows it after the group drains. A
/// group is reusable after wait() returns. Groups may nest (a group task
/// may spawn and wait on its own group); a waiting thread only helps with
/// tasks of the group it waits on, which keeps helper recursion bounded by
/// the spawn tree's depth and means a waiter never blocks on unrelated
/// work.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  /// Drains (and swallows) any still-pending tasks — a group must not
  /// outlive work referencing it.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueue one task. Runs inline when the pool has no workers.
  void spawn(std::function<void()> task);

  /// Help until every spawned task completed; rethrows the first captured
  /// exception.
  void wait();

 private:
  friend class ThreadPool;
  ThreadPool& pool_;
  std::atomic<std::uint64_t> pending_{0};
  std::exception_ptr first_error_;  ///< Guarded by the pool's mutex.
};

class ThreadPool {
 public:
  /// Spawns `threads` workers. 0 workers means spawned tasks run inline.
  explicit ThreadPool(std::size_t threads);

  /// Joins all workers; queued tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const;

  /// Grow the pool to at least `threads` workers. Existing workers keep
  /// running (and keep their thread IDs); only the shortfall is spawned.
  /// Never shrinks. Safe to call concurrently with spawns.
  void ensure_size(std::size_t threads);

  /// Snapshot of the scheduling counters (relaxed reads; exact once the
  /// pool is quiescent).
  PoolStats stats() const;

  /// Zero every stats counter (including the high-water mark). Telemetry
  /// resets between runs go through here because max-folded marks cannot be
  /// re-baselined by subtraction.
  void reset_stats();

 private:
  friend class TaskGroup;

  struct GroupTask {
    TaskGroup* group = nullptr;
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// TaskGroup::spawn() body. A worker pushes onto its own deque (LIFO pop
  /// keeps the cache warm and bounds helper recursion); an outside thread
  /// deals round-robin across worker deques. Idle workers and helping
  /// waiters steal from the front (FIFO), so the oldest task migrates
  /// first.
  void spawn(TaskGroup& group, std::function<void()> task);

  /// TaskGroup::wait() body: run/steal tasks of `group` until none remain
  /// in flight, sleeping only when no task of the group is queued anywhere.
  void wait(TaskGroup& group);

  void run_group_task(GroupTask& task);
  /// Pop from the caller's own deque (back, any group) or steal from
  /// another deque (front; restricted to `only` when non-null). Caller
  /// must hold mutex_. `self` is the worker index or kNoWorker. Sets
  /// `stole` when the task came off another worker's deque; the caller
  /// reports it to the steal observer only after dropping mutex_ (the
  /// observer may take unrelated locks — calling it under the pool mutex
  /// would order pool-before-observer against exposition paths that
  /// sample pool stats while holding their own locks).
  bool take_group_task_locked(std::size_t self, const TaskGroup* only,
                              GroupTask& out, bool& stole);
  /// Dequeue bookkeeping for the task at deque[i]: moves it to `out`,
  /// drops the queue depth and adds its queueing time to the wait total.
  void pop_locked(std::deque<GroupTask>& deque, std::size_t i,
                  GroupTask& out);
  void worker_loop(std::size_t index);

  static constexpr std::size_t kNoWorker = ~std::size_t{0};

  mutable std::mutex mutex_;
  std::condition_variable cv_;        ///< Workers: task available/stop.
  std::condition_variable group_cv_;  ///< Waiters: group progress/spawn.
  /// Per-worker task deques (parallel to workers_); guarded by mutex_ —
  /// tasks are strand-sized (util::parallel_for spawns at most one per
  /// worker), so the lock is cold next to the task bodies.
  std::vector<std::deque<GroupTask>> deques_;
  std::size_t next_deque_ = 0;  ///< Round-robin cursor for spawns from
                                ///< non-worker threads.
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> tasks_submitted_{0};
  std::atomic<std::uint64_t> tasks_executed_{0};
  /// Sum of deques_ sizes: written under mutex_, read relaxed by stats().
  std::atomic<std::uint64_t> queue_depth_{0};
  std::atomic<std::uint64_t> queue_depth_high_water_{0};
  std::atomic<std::uint64_t> task_wait_ns_total_{0};
  std::atomic<std::uint64_t> task_run_ns_total_{0};
  std::atomic<std::uint64_t> tasks_stolen_{0};
};

/// Observer invoked on the thief thread, after the pool mutex is
/// released, each time a task migrates off another worker's deque.
/// The obs trace layer installs one to surface steals on the
/// flight-recorder timeline; pass nullptr to clear. The hook is a bare
/// function pointer read with one relaxed load on the steal path —
/// uninstalled, the cost is that load.
using TaskStealObserver = void (*)();
void set_task_steal_observer(TaskStealObserver observer);

/// The process-lifetime pool the parallel primitives fan out on. Created
/// empty on first use and grown on demand by parallel_for(); workers
/// persist until process exit, so a hot loop calling parallel_for at high
/// frequency pays no per-call thread churn.
ThreadPool& shared_pool();

/// Worker-thread count the parallel primitives use:
/// explicit set_thread_count() override, else the `PATCHWORK_THREADS`
/// environment variable, else std::thread::hardware_concurrency().
/// 0 means "run serially on the calling thread".
std::size_t thread_count();

/// Override the thread count (tests and benches pin 0/1/2/8 with this).
/// std::nullopt restores env/hardware resolution.
void set_thread_count(std::optional<std::size_t> n);

}  // namespace patchwork::util
