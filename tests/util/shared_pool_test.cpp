// The shared process-lifetime pool's contract: one pool per process, grown
// on demand and never torn down between parallel regions, safe to drive
// from several threads at once (the caller always participates, so no
// combination of concurrent parallel_for calls can deadlock), and worker
// threads keep stable identities — parallel_for must NOT construct a pool
// per call.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "testing/thread_count.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

namespace patchwork::util {
namespace {

using patchwork::testing::ScopedThreadCount;

TEST(SharedPool, IsOneProcessWideInstance) {
  ThreadPool& a = shared_pool();
  ThreadPool& b = shared_pool();
  EXPECT_EQ(&a, &b);
}

TEST(SharedPool, GrowsOnDemandAndNeverShrinks) {
  ThreadPool& pool = shared_pool();
  pool.ensure_size(2);
  EXPECT_GE(pool.size(), 2u);
  const std::size_t grown = pool.size();
  pool.ensure_size(1);  // Smaller request: no-op.
  EXPECT_EQ(pool.size(), grown);
  pool.ensure_size(grown + 1);
  EXPECT_EQ(pool.size(), grown + 1);
}

TEST(SharedPool, WorkerThreadsAreStableAcrossParallelForCalls) {
  // Run many parallel regions and record which OS threads other than the
  // caller executed loop bodies. If parallel_for spun up a fresh pool per
  // call, every round would mint new thread ids and the union would keep
  // growing; with the shared pool it is bounded by the pool size.
  ScopedThreadCount threads(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::set<std::thread::id> worker_ids;
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    parallel_for(64, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) {
        std::lock_guard<std::mutex> lock(mu);
        worker_ids.insert(std::this_thread::get_id());
      }
    });
  }
  EXPECT_LE(worker_ids.size(), shared_pool().size());
}

TEST(SharedPool, ConcurrentParallelForFromManyThreads) {
  // Several client threads each drive their own parallel_for through the
  // one shared pool. Caller participation guarantees forward progress even
  // when every pool worker is busy serving someone else.
  ScopedThreadCount threads(4);
  constexpr int kClients = 4;
  constexpr std::size_t kItems = 2000;
  std::vector<std::vector<std::atomic<int>>> hits(kClients);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kItems);
    for (auto& x : h) x.store(0);
  }
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      parallel_for(kItems, [&](std::size_t i) { ++hits[c][i]; });
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(hits[c][i].load(), 1) << "client " << c << " index " << i;
    }
  }
}

TEST(SharedPool, ReusableAfterIdlePeriod) {
  ScopedThreadCount threads(4);
  std::atomic<int> first{0};
  parallel_for(128, [&](std::size_t) { ++first; });
  EXPECT_EQ(first.load(), 128);
  // Workers idle on the condition variable; a later region must reuse
  // them without hiccups.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::atomic<int> second{0};
  parallel_for(128, [&](std::size_t) { ++second; });
  EXPECT_EQ(second.load(), 128);
}

}  // namespace
}  // namespace patchwork::util
