// Registry semantics: sharded folds are exact, concurrent updates are safe
// (these tests run under the TSan leg of scripts/check.sh), handles are
// stable, and reset() re-baselines pull counters.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/histogram.hpp"

namespace patchwork::obs {
namespace {

TEST(ObsRegistry, CounterFoldsShardsToExactSum) {
  Registry reg;
  Counter& c = reg.counter("patchwork_test_total", "t");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsRegistry, ConcurrentHistogramUpdatesKeepExactCountAndSum) {
  Registry reg;
  LatencyHistogram& h = reg.histogram("patchwork_test_ns", "t");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<std::uint64_t>(t) * 100 + 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  std::uint64_t want_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    want_sum += (static_cast<std::uint64_t>(t) * 100 + 1) * kPerThread;
  }
  EXPECT_EQ(h.sum(), want_sum);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t n : h.buckets()) bucket_total += n;
  EXPECT_EQ(bucket_total, h.count());
}

TEST(ObsRegistry, GaugeMaxFoldIsScheduleIndependent) {
  Registry reg;
  Gauge& g = reg.gauge("patchwork_test_high_water", "t");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < 1000; ++i) {
        g.observe_max(static_cast<double>(t * 1000 + i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), 7999.0);
}

TEST(ObsRegistry, SameNameAndLabelsReturnsSameHandle) {
  Registry reg;
  Counter& a =
      reg.counter("patchwork_x_total", "t", {{"cause", "ring"}});
  Counter& b =
      reg.counter("patchwork_x_total", "t", {{"cause", "ring"}});
  Counter& other =
      reg.counter("patchwork_x_total", "t", {{"cause", "filter"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  a.add(2);
  EXPECT_EQ(b.value(), 2u);
  EXPECT_EQ(other.value(), 0u);
}

TEST(ObsRegistry, HistogramBucketsMatchLog2Histogram) {
  Registry reg;
  LatencyHistogram& h = reg.histogram("patchwork_test_ns", "t");
  util::Log2Histogram want;
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 7ull, 8ull, 1000ull,
                          (1ull << 40) + 17}) {
    h.observe(v);
    want.add(v);
  }
  const util::Log2Histogram got = h.snapshot();
  EXPECT_EQ(got.total(), want.total());
  ASSERT_EQ(got.bucket_count(), want.bucket_count());
  for (std::size_t k = 0; k < want.bucket_count(); ++k) {
    EXPECT_EQ(got.bucket(k), want.bucket(k)) << "k=" << k;
  }
}

TEST(ObsRegistry, ResetZeroesPushMetricsAndRebaselinesPullCounters) {
  Registry reg;
  Counter& c = reg.counter("patchwork_a_total", "t");
  c.add(5);
  std::atomic<std::uint64_t> source{100};
  reg.counter_fn("patchwork_b_total", "t", {}, Determinism::kDeterministic,
                 [&source] { return source.load(); });
  std::string text = reg.expose_text();
  EXPECT_NE(text.find("patchwork_a_total 5"), std::string::npos);
  EXPECT_NE(text.find("patchwork_b_total 100"), std::string::npos);

  reg.reset();
  source += 30;
  text = reg.expose_text();
  EXPECT_NE(text.find("patchwork_a_total 0"), std::string::npos);
  // Pull counters read as deltas since the reset baseline of 100.
  EXPECT_NE(text.find("patchwork_b_total 30"), std::string::npos);
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST(ObsRegistry, ConcurrentRegistrationAndExposeIsSafe) {
  // Over many fresh registries, workers released together from a barrier
  // first-use the same series while another thread exposes the registry.
  // Each series must be one object however the first uses interleave, so
  // no observation is lost (a series created outside the registry lock
  // loses one, or corrupts the heap, within a few hundred rounds).
  constexpr int kRounds = 2000;
  constexpr int kWorkers = 3;
  constexpr int kSeries = 64;
  constexpr int kExposes = 4;
  for (int round = 0; round < kRounds; ++round) {
    Registry reg;
    std::barrier start(kWorkers + 1);
    std::vector<std::thread> threads;
    for (int t = 0; t < kWorkers; ++t) {
      threads.emplace_back([&reg, &start] {
        start.arrive_and_wait();
        for (int i = 0; i < kSeries; ++i) {
          reg.histogram("patchwork_shared_ns", "t",
                        {{"series", std::to_string(i)}})
              .observe(100);
        }
      });
    }
    threads.emplace_back([&reg, &start] {
      start.arrive_and_wait();
      for (int i = 0; i < kExposes; ++i) (void)reg.expose_text();
    });
    for (std::thread& t : threads) t.join();
    for (int i = 0; i < kSeries; ++i) {
      ASSERT_EQ(reg.histogram("patchwork_shared_ns", "t",
                              {{"series", std::to_string(i)}})
                    .count(),
                std::uint64_t{kWorkers})
          << "round " << round << " series " << i;
    }
  }
}

TEST(ObsRegistry, ProcessRegistryHasPoolAndLoggerBuiltins) {
  const std::string text = expose_text();
  EXPECT_NE(text.find("patchwork_pool_tasks_total"), std::string::npos);
  EXPECT_NE(text.find("patchwork_pool_queue_depth_high_water"),
            std::string::npos);
  EXPECT_NE(text.find("patchwork_log_dropped_records_total"),
            std::string::npos);
  // Pool scheduling metrics are wall-clock class: absent from the
  // byte-comparable view.
  const std::string det = expose_text(/*deterministic_only=*/true);
  EXPECT_EQ(det.find("patchwork_pool_tasks_total"), std::string::npos);
  EXPECT_NE(det.find("patchwork_log_dropped_records_total"),
            std::string::npos);
}

}  // namespace
}  // namespace patchwork::obs
