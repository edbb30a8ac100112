#include "util/thread_pool.hpp"

#include <cstdlib>
#include <utility>

namespace patchwork::util {

namespace {

// Identity of the pool worker running on this thread: which pool, and
// which per-worker deque belongs to it.
thread_local const void* t_worker_pool = nullptr;
thread_local std::size_t t_worker_index = 0;

std::optional<std::size_t>& thread_count_override() {
  static std::optional<std::size_t> value;
  return value;
}

std::atomic<TaskStealObserver> g_steal_observer{nullptr};

void notify_steal_observer() {
  if (TaskStealObserver observer =
          g_steal_observer.load(std::memory_order_acquire)) {
    observer();
  }
}

std::uint64_t ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

void set_task_steal_observer(TaskStealObserver observer) {
  g_steal_observer.store(observer, std::memory_order_release);
}

TaskGroup::~TaskGroup() {
  if (pending_.load(std::memory_order_acquire) != 0) {
    try {
      wait();
    } catch (...) {
      // Destructor drain: the error has nowhere to go.
    }
  }
}

void TaskGroup::spawn(std::function<void()> task) {
  pool_.spawn(*this, std::move(task));
}

void TaskGroup::wait() { pool_.wait(*this); }

ThreadPool::ThreadPool(std::size_t threads) { ensure_size(threads); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  group_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t ThreadPool::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

void ThreadPool::ensure_size(std::size_t threads) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) return;
  if (deques_.size() < threads) deques_.resize(threads);
  while (workers_.size() < threads) {
    const std::size_t index = workers_.size();
    workers_.emplace_back([this, index] { worker_loop(index); });
  }
}

void ThreadPool::spawn(TaskGroup& group, std::function<void()> task) {
  tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
  group.pending_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!workers_.empty() && !stopping_) {
      const std::size_t target = t_worker_pool == this
                                     ? t_worker_index  // Own deque: LIFO.
                                     : next_deque_++ % deques_.size();
      deques_[target].push_back(GroupTask{&group, std::move(task),
                                          std::chrono::steady_clock::now()});
      // Sample the high-water mark after the increment: any task that had
      // to queue behind a worker leaves a mark >= 1.
      const std::uint64_t depth =
          queue_depth_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (depth > queue_depth_high_water_.load(std::memory_order_relaxed)) {
        queue_depth_high_water_.store(depth, std::memory_order_relaxed);
      }
      cv_.notify_one();
      group_cv_.notify_all();  // A helping waiter may want to steal this.
      return;
    }
  }
  // No workers (serial mode): run inline; wait() still carries any throw.
  GroupTask inline_task{&group, std::move(task), {}};
  run_group_task(inline_task);
}

void ThreadPool::pop_locked(std::deque<GroupTask>& deque, std::size_t i,
                            GroupTask& out) {
  out = std::move(deque[i]);
  deque.erase(deque.begin() + static_cast<std::ptrdiff_t>(i));
  queue_depth_.fetch_sub(1, std::memory_order_relaxed);
  task_wait_ns_total_.fetch_add(ns_since(out.enqueued),
                                std::memory_order_relaxed);
}

bool ThreadPool::take_group_task_locked(std::size_t self,
                                        const TaskGroup* only,
                                        GroupTask& out, bool& stole) {
  if (self != kNoWorker) {
    // Own deque, newest first (descendants of a waited group sit at the
    // back of the owner's deque).
    std::deque<GroupTask>& own = deques_[self];
    for (std::size_t i = own.size(); i-- > 0;) {
      if (only == nullptr || own[i].group == only) {
        pop_locked(own, i, out);
        return true;
      }
    }
  }
  for (std::size_t d = 0; d < deques_.size(); ++d) {
    if (d == self) continue;
    std::deque<GroupTask>& victim = deques_[d];
    for (std::size_t i = 0; i < victim.size(); ++i) {
      if (only != nullptr && victim[i].group != only) continue;
      pop_locked(victim, i, out);
      tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
      stole = true;
      return true;
    }
  }
  return false;
}

void ThreadPool::wait(TaskGroup& group) {
  const std::size_t self = t_worker_pool == this ? t_worker_index : kNoWorker;
  for (;;) {
    GroupTask task;
    bool have = false;
    bool stole = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        // Only tasks of the waited group are eligible — helping an
        // unrelated group could recurse without bound.
        if (take_group_task_locked(self, &group, task, stole)) {
          have = true;
          break;
        }
        if (group.pending_.load(std::memory_order_acquire) == 0) break;
        group_cv_.wait(lock);
      }
    }
    if (!have) break;
    if (stole) notify_steal_observer();
    run_group_task(task);
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    error = std::exchange(group.first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.tasks_submitted = tasks_submitted_.load(std::memory_order_relaxed);
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  s.queue_depth_high_water =
      queue_depth_high_water_.load(std::memory_order_relaxed);
  s.task_wait_ns_total = task_wait_ns_total_.load(std::memory_order_relaxed);
  s.task_run_ns_total = task_run_ns_total_.load(std::memory_order_relaxed);
  s.tasks_stolen = tasks_stolen_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::reset_stats() {
  tasks_submitted_.store(0, std::memory_order_relaxed);
  tasks_executed_.store(0, std::memory_order_relaxed);
  // queue_depth_ is live bookkeeping, not a counter: leave it alone.
  queue_depth_high_water_.store(0, std::memory_order_relaxed);
  task_wait_ns_total_.store(0, std::memory_order_relaxed);
  task_run_ns_total_.store(0, std::memory_order_relaxed);
  tasks_stolen_.store(0, std::memory_order_relaxed);
}

void ThreadPool::run_group_task(GroupTask& task) {
  const auto start = std::chrono::steady_clock::now();
  try {
    task.fn();
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!task.group->first_error_) {
      task.group->first_error_ = std::current_exception();
    }
  }
  task_run_ns_total_.fetch_add(ns_since(start), std::memory_order_relaxed);
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  if (task.group->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task down. The empty lock/unlock pairs with the waiter's
    // predicate check, so the notify cannot slip between its pending_
    // load and its sleep.
    { std::lock_guard<std::mutex> lock(mutex_); }
    group_cv_.notify_all();
  }
}

void ThreadPool::worker_loop(std::size_t index) {
  t_worker_pool = this;
  t_worker_index = index;
  for (;;) {
    GroupTask task;
    bool stole = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] {
        return stopping_ || queue_depth_.load(std::memory_order_relaxed) > 0;
      });
      if (!take_group_task_locked(index, nullptr, task, stole)) {
        if (stopping_) return;  // Deques drained.
        continue;
      }
    }
    if (stole) notify_steal_observer();
    run_group_task(task);
  }
}

ThreadPool& shared_pool() {
  // Meyers singleton: created empty on first use, grown on demand by
  // parallel_for(), joined during static destruction. Workers are only
  // ever added, so thread IDs observed by one call remain valid pool
  // workers for every later call.
  static ThreadPool pool(0);
  return pool;
}

std::size_t thread_count() {
  if (thread_count_override().has_value()) return *thread_count_override();
  if (const char* env = std::getenv("PATCHWORK_THREADS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0') return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void set_thread_count(std::optional<std::size_t> n) {
  thread_count_override() = n;
}

}  // namespace patchwork::util
