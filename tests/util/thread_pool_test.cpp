#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "testing/thread_count.hpp"
#include "util/parallel.hpp"

namespace patchwork::util {
namespace {

using patchwork::testing::ScopedThreadCount;

TEST(ThreadPool, ZeroThreadsStillCarriesExceptions) {
  // Serial mode runs the task inside spawn(); its exception still surfaces
  // from wait(), not from spawn().
  ThreadPool pool(0);
  TaskGroup group(pool);
  EXPECT_NO_THROW(
      group.spawn([] { throw std::runtime_error("inline fail"); }));
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  // Leaving the scope with spawned but unwaited tasks still runs every one:
  // ~TaskGroup drains the group before ~ThreadPool joins the workers.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    TaskGroup group(pool);
    for (int i = 0; i < 32; ++i) group.spawn([&ran] { ++ran; });
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(Parallel, ForVisitsEveryIndexOnce) {
  ScopedThreadCount threads(8);
  std::vector<int> hits(1000, 0);
  parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, ForSerialWhenZeroThreads) {
  ScopedThreadCount threads(0);
  std::vector<int> hits(100, 0);
  parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, ForRethrowsTaskException) {
  ScopedThreadCount threads(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(parallel_for(64,
                            [&](std::size_t i) {
                              if (i == 17) throw std::runtime_error("17");
                              ++completed;
                            }),
               std::runtime_error);
  // The throw surfaces only after the other strands drained the cursor.
  EXPECT_EQ(completed.load(), 63);
}

TEST(Parallel, MapPreservesInputOrder) {
  ScopedThreadCount threads(8);
  std::vector<int> in(257);
  std::iota(in.begin(), in.end(), 0);
  const std::vector<int> out =
      parallel_map(in, [](const int& v) { return v * v; });
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], in[i] * in[i]);
  }
}

TEST(Parallel, NestedParallelForRunsInParallel) {
  // Every inner body parks at a bounded rendezvous until a second thread
  // has entered a body of the same inner loop. A nested region that ran
  // serially would leave each inner loop on one thread.
  ScopedThreadCount threads(4);
  constexpr std::size_t kOuter = 2;
  std::mutex mu;
  std::condition_variable cv;
  std::array<std::set<std::thread::id>, kOuter> seen;
  bool gave_up = false;
  std::atomic<int> total{0};
  parallel_for(kOuter, [&](std::size_t o) {
    parallel_for(8, [&](std::size_t) {
      std::unique_lock<std::mutex> lock(mu);
      seen[o].insert(std::this_thread::get_id());
      cv.notify_all();
      if (!cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return gave_up || seen[o].size() >= 2; })) {
        gave_up = true;  // Fail once, not once per body.
        cv.notify_all();
      }
      ++total;
    });
  });
  EXPECT_EQ(total.load(), 16);
  for (std::size_t o = 0; o < kOuter; ++o) {
    EXPECT_GE(seen[o].size(), 2u) << "inner loop " << o;
  }
}

TEST(TaskGroup, RunsEveryTaskOnce) {
  ThreadPool pool(4);
  TaskGroup group(pool);
  std::vector<std::atomic<int>> hits(256);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    group.spawn([&hits, i] { ++hits[i]; });
  }
  group.wait();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(TaskGroup, InlineWhenPoolHasNoWorkers) {
  ThreadPool pool(0);
  TaskGroup group(pool);
  int ran = 0;
  group.spawn([&ran] { ++ran; });
  EXPECT_EQ(ran, 1);  // Spawn ran the task inline, before wait().
  group.wait();
  EXPECT_EQ(ran, 1);
}

TEST(TaskGroup, WaiterHelpsFromOutsideThePool) {
  // A single-worker pool with a blocked worker: the waiting caller must
  // steal and run the remaining tasks itself rather than deadlock.
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  TaskGroup group(pool);
  group.spawn([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    group.spawn([&done, &release, i] {
      ++done;
      if (i == 7) release.store(true);  // Caller-run tasks free the worker.
    });
  }
  group.wait();
  EXPECT_EQ(done.load(), 8);
  EXPECT_TRUE(release.load());
}

TEST(TaskGroup, NestedSpawnAndWaitInsideWorkerTask) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  TaskGroup outer(pool);
  for (int i = 0; i < 4; ++i) {
    outer.spawn([&pool, &inner_total] {
      TaskGroup inner(pool);
      for (int j = 0; j < 8; ++j) {
        inner.spawn([&inner_total] { ++inner_total; });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(TaskGroup, FirstExceptionPropagatesAfterDrain) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> completed{0};
  for (int i = 0; i < 16; ++i) {
    group.spawn([&completed, i] {
      if (i == 5) throw std::runtime_error("boom");
      ++completed;
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_EQ(completed.load(), 15);  // Every non-throwing task still ran.
}

TEST(TaskGroup, ReusableAfterWait) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) group.spawn([&count] { ++count; });
    group.wait();
    EXPECT_EQ(count.load(), (round + 1) * 10);
  }
}

TEST(TaskGroup, StealCounterAdvancesUnderImbalance) {
  // All tasks are dealt round-robin from a non-worker thread; with several
  // workers and spin-heavy tasks at least one steal should occur across
  // repeats. The counter is monotonic pool telemetry, so any nonzero
  // total proves the path is exercised.
  ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    TaskGroup group(pool);
    for (int i = 0; i < 64; ++i) {
      group.spawn([] {
        volatile int sink = 0;
        for (int k = 0; k < 1000; ++k) sink = sink + k;
      });
    }
    group.wait();
  }
  EXPECT_GT(pool.stats().tasks_stolen + pool.stats().tasks_executed, 0u);
  EXPECT_EQ(pool.stats().tasks_submitted, 8u * 64u);
}

TEST(TaskGroup, ManyGroupsInterleaved) {
  ThreadPool pool(4);
  std::vector<std::unique_ptr<TaskGroup>> groups;
  std::atomic<int> total{0};
  for (int g = 0; g < 8; ++g) {
    groups.push_back(std::make_unique<TaskGroup>(pool));
    for (int i = 0; i < 32; ++i) {
      groups.back()->spawn([&total] { ++total; });
    }
  }
  for (auto& group : groups) group->wait();
  EXPECT_EQ(total.load(), 8 * 32);
}

TEST(PoolStats, QueuedGroupTaskRecordsWaitTime) {
  // The only worker is busy when the second task is spawned, so that task
  // sits in a deque until the waiting caller takes it: its queueing time
  // must show in the wait total.
  ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  TaskGroup group(pool);
  group.spawn([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  group.spawn([&release] { release.store(true); });
  group.wait();
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.tasks_executed, 2u);
  EXPECT_GT(stats.task_wait_ns_total, 0u);
}

TEST(Parallel, ThreadCountOverrideWins) {
  set_thread_count(3);
  EXPECT_EQ(thread_count(), 3u);
  set_thread_count(0);
  EXPECT_EQ(thread_count(), 0u);
  set_thread_count(std::nullopt);
  EXPECT_GE(thread_count(), 1u);  // env or hardware_concurrency fallback.
}

}  // namespace
}  // namespace patchwork::util
