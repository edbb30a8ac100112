// Patchwork self-telemetry: the process-wide metrics registry.
//
// The paper's operators watch Patchwork itself through an SNMP -> Prometheus
// -> Grafana chain and rely on per-instance logs (Section 6.2.2) to notice
// silent switch-side mirror drops, capture-ring overflow, and allocation
// back-off. This module gives the reproduction the same first-class
// self-telemetry: counters, gauges, and histograms any subsystem can update
// from hot paths, exposed in Prometheus text format (expose.hpp within) and
// folded into the per-run manifest (manifest.hpp).
//
// Design rules:
//   1. Hot paths stay uncontended. Counters and histograms are sharded:
//      each thread updates its own cache-line-padded slot (chosen by a
//      thread-local shard id) with relaxed atomics; shards are folded only
//      at read time. A parallel_for worker never bounces a cache line
//      against another worker on the same metric.
//   2. Determinism survives instrumentation. Metrics are classified
//      kDeterministic (value depends only on the seeded work, identical for
//      any thread count: sums of per-item adds, max-folds of per-item
//      observations) or kWallClock (durations, queue depths — anything
//      schedule-dependent). expose_text(true) and the manifest's
//      deterministic section contain only the former, so the PR-1/PR-2
//      byte-identical-artifacts contract extends to telemetry.
//   3. Handles are cheap and stable. counter()/gauge()/histogram() return
//      references that live as long as the registry; call sites cache them
//      and update lock-free.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/histogram.hpp"

namespace patchwork::obs {

/// Whether a metric's value is a pure function of the seeded work
/// (identical at any thread count) or depends on scheduling / wall time.
enum class Determinism : std::uint8_t { kDeterministic, kWallClock };

/// Label set attached to one series, e.g. {{"cause", "capacity"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {

/// Number of update shards per metric. Threads map onto shards by a
/// process-wide round-robin thread-local id, so up to kShards concurrent
/// writers never share a cache line.
inline constexpr std::size_t kShards = 16;

/// Highest log2 bucket index (matches util::Log2Histogram's 62 cap).
inline constexpr std::size_t kLog2Buckets = 63;

std::size_t shard_index();

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};

}  // namespace detail

/// Monotonic counter. add() is wait-free on the caller's shard; value()
/// folds all shards (a sum, so the fold is schedule-independent whenever
/// the multiset of add() calls is).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    shards_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const;
  void reset();

 private:
  std::array<detail::PaddedU64, detail::kShards> shards_{};
};

/// Gauge over a double. set() is last-writer-wins (use from serial control
/// paths); observe_max() folds concurrent observations with max, which is
/// schedule-independent — use it from parallel regions (high-water marks).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void observe_max(double v);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Power-of-two latency/size histogram, sharded like Counter. Bucket
/// boundaries match util::Log2Histogram ([2^k, 2^(k+1))); snapshot() folds
/// the shards back into one util::Log2Histogram for reuse of its
/// rounded-up accounting. count()/sum() track the exact totals.
class LatencyHistogram {
 public:
  void observe(std::uint64_t value, std::uint64_t count = 1);
  std::uint64_t count() const;
  std::uint64_t sum() const;
  /// Folded per-bucket counts; index k covers [2^k, 2^(k+1)).
  std::vector<std::uint64_t> buckets() const;
  /// The folded histogram as a util::Log2Histogram (exact_sum approximated
  /// by bucket lower bounds; use sum() for the exact total).
  util::Log2Histogram snapshot() const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, detail::kLog2Buckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Shard, detail::kShards> shards_{};
};

/// The registry: name + labels -> metric handle. Metric families carry a
/// help string, a type, and a Determinism class; series of one family share
/// all three (enforced on registration).
class Registry {
 public:
  Registry();
  ~Registry();  // Out of line: Family/Series are incomplete here.
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name, std::string_view help,
                   Labels labels = {},
                   Determinism det = Determinism::kDeterministic);
  Gauge& gauge(std::string_view name, std::string_view help,
               Labels labels = {},
               Determinism det = Determinism::kDeterministic);
  LatencyHistogram& histogram(std::string_view name, std::string_view help,
                              Labels labels = {},
                              Determinism det = Determinism::kDeterministic);

  /// Pull-style series for subsystems below obs in the layering (the
  /// shared worker pool, the logger): the function is sampled at
  /// exposition time. reset() records the current reading as a baseline so
  /// later readings are deltas since the last reset — this is what lets a
  /// determinism test compare runs even though the underlying source (a
  /// process-lifetime pool) never restarts.
  void counter_fn(std::string_view name, std::string_view help,
                  Labels labels, Determinism det,
                  std::function<std::uint64_t()> read);
  /// Same, but gauge-typed and sampled raw (no baseline on reset): current
  /// readings like queue depth are meaningful without differencing.
  void gauge_fn(std::string_view name, std::string_view help, Labels labels,
                Determinism det, std::function<double()> read);

  /// Prometheus text format: families sorted by name (series by label
  /// string), each with # HELP / # TYPE lines; histograms expose
  /// cumulative le buckets plus +Inf, _sum and _count.
  /// With deterministic_only, kWallClock families are omitted — this is
  /// the byte-comparable view.
  std::string expose_text(bool deterministic_only = false) const;

  /// Opt in to the synthetic patchwork_build_info gauge: a constant-1
  /// series whose labels carry git describe and thread count,
  /// rendered at exposition time (never registered — the thread count is
  /// run-dependent, so the family is wall-clock class and omitted from
  /// the deterministic view). The process-wide registry() enables it;
  /// standalone test registries stay byte-stable without it.
  void enable_build_info() { emit_build_info_ = true; }

  /// Zero every push metric and re-baseline every pull counter. Keeps all
  /// registrations (handles stay valid).
  void reset();

  /// One folded series snapshot, for the manifest writer.
  struct SeriesValue {
    std::string name;
    std::string labels;  ///< Rendered "{k=\"v\",...}" or "".
    char type = 'c';     ///< 'c'ounter, 'g'auge, 'h'istogram.
    Determinism det = Determinism::kDeterministic;
    std::uint64_t count = 0;  ///< Counter value or histogram count.
    double gauge = 0.0;
    std::uint64_t sum = 0;    ///< Histogram exact sum.
  };
  std::vector<SeriesValue> snapshot_values() const;

 private:
  struct Family;
  struct Series;
  /// Find or create the series; the caller holds mutex_.
  Series& series_locked(std::string_view name, std::string_view help,
                        char type, Labels labels, Determinism det);

  mutable std::mutex mutex_;
  bool emit_build_info_ = false;
  std::map<std::string, std::unique_ptr<Family>, std::less<>> families_;
};

/// The process-wide registry every subsystem records into. Built-in pull
/// metrics (shared pool, logger drops) are registered on first use.
Registry& registry();

/// registry().expose_text(...) shorthand.
std::string expose_text(bool deterministic_only = false);

/// Write expose_text() to a file. Returns false on I/O failure.
bool expose_to_file(const std::string& path, bool deterministic_only = false);

}  // namespace patchwork::obs
