#include "obs/metrics.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/manifest.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace patchwork::obs {

namespace detail {

std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return id;
}

}  // namespace detail

// --- Counter ---------------------------------------------------------------

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const detail::PaddedU64& s : shards_) {
    total += s.v.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() {
  for (detail::PaddedU64& s : shards_) {
    s.v.store(0, std::memory_order_relaxed);
  }
}

// --- Gauge -----------------------------------------------------------------

void Gauge::observe_max(double v) {
  double cur = value_.load(std::memory_order_relaxed);
  while (v > cur && !value_.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

// --- LatencyHistogram ------------------------------------------------------

void LatencyHistogram::observe(std::uint64_t value, std::uint64_t count) {
  // Same bucket rule as util::Log2Histogram::add: k with value < 2^(k+1).
  std::size_t k = 0;
  while ((2ull << k) <= value && k < 62) ++k;
  Shard& s = shards_[detail::shard_index()];
  s.buckets[k].fetch_add(count, std::memory_order_relaxed);
  s.count.fetch_add(count, std::memory_order_relaxed);
  s.sum.fetch_add(value * count, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::count() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t LatencyHistogram::sum() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::uint64_t> LatencyHistogram::buckets() const {
  std::vector<std::uint64_t> folded;
  for (const Shard& s : shards_) {
    for (std::size_t k = 0; k < detail::kLog2Buckets; ++k) {
      const std::uint64_t n = s.buckets[k].load(std::memory_order_relaxed);
      if (n == 0) continue;
      if (folded.size() <= k) folded.resize(k + 1, 0);
      folded[k] += n;
    }
  }
  return folded;
}

util::Log2Histogram LatencyHistogram::snapshot() const {
  util::Log2Histogram hist;
  const std::vector<std::uint64_t> folded = buckets();
  for (std::size_t k = 0; k < folded.size(); ++k) {
    if (folded[k] > 0) hist.add(util::Log2Histogram::bucket_lo(k), folded[k]);
  }
  return hist;
}

void LatencyHistogram::reset() {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
  }
}

// --- Registry --------------------------------------------------------------

namespace {

void append_escaped(std::string& out, std::string_view text,
                    bool escape_quotes) {
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '"':
        if (escape_quotes) {
          out += "\\\"";
        } else {
          out += c;
        }
        break;
      default: out += c;
    }
  }
}

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key;
    out += "=\"";
    append_escaped(out, value, /*escape_quotes=*/true);
    out += "\"";
  }
  out += "}";
  return out;
}

/// Inject one extra label (le=...) into a rendered label string.
std::string with_le(const std::string& labels_text, const std::string& le) {
  if (labels_text.empty()) return "{le=\"" + le + "\"}";
  std::string out = labels_text;
  out.pop_back();  // Drop the closing '}'.
  out += ",le=\"" + le + "\"}";
  return out;
}

std::string format_double(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

struct Registry::Series {
  std::string labels_text;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<LatencyHistogram> hist;
  std::function<std::uint64_t()> read_counter;
  std::uint64_t counter_baseline = 0;
  std::function<double()> read_gauge;

  std::uint64_t counter_value() const {
    if (counter) return counter->value();
    const std::uint64_t raw = read_counter ? read_counter() : 0;
    return raw >= counter_baseline ? raw - counter_baseline : 0;
  }
  double gauge_value() const {
    if (gauge) return gauge->value();
    return read_gauge ? read_gauge() : 0.0;
  }
};

struct Registry::Family {
  std::string help;
  char type = 'c';
  Determinism det = Determinism::kDeterministic;
  std::map<std::string, Series> series;  ///< Keyed by rendered labels.
};

Registry::Registry() = default;
Registry::~Registry() = default;

Registry::Series& Registry::series_locked(std::string_view name,
                                          std::string_view help, char type,
                                          Labels labels, Determinism det) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    auto family = std::make_unique<Family>();
    family->help = std::string(help);
    family->type = type;
    family->det = det;
    it = families_.emplace(std::string(name), std::move(family)).first;
  }
  Family& family = *it->second;
  // A family's type/determinism class is fixed by its first registration;
  // re-registering with a different one is a programming error.
  assert(family.type == type);
  assert(family.det == det);
  std::string key = render_labels(labels);
  auto sit = family.series.find(key);
  if (sit == family.series.end()) {
    Series s;
    s.labels_text = key;
    sit = family.series.emplace(std::move(key), std::move(s)).first;
  }
  return sit->second;
}

// Every accessor creates its series object under mutex_: two threads
// first using one series must both get the one object the first created.
Counter& Registry::counter(std::string_view name, std::string_view help,
                           Labels labels, Determinism det) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series& s = series_locked(name, help, 'c', std::move(labels), det);
  if (!s.counter) s.counter = std::make_unique<Counter>();
  return *s.counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help,
                       Labels labels, Determinism det) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series& s = series_locked(name, help, 'g', std::move(labels), det);
  if (!s.gauge) s.gauge = std::make_unique<Gauge>();
  return *s.gauge;
}

LatencyHistogram& Registry::histogram(std::string_view name,
                                      std::string_view help, Labels labels,
                                      Determinism det) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series& s = series_locked(name, help, 'h', std::move(labels), det);
  if (!s.hist) s.hist = std::make_unique<LatencyHistogram>();
  return *s.hist;
}

void Registry::counter_fn(std::string_view name, std::string_view help,
                          Labels labels, Determinism det,
                          std::function<std::uint64_t()> read) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series& s = series_locked(name, help, 'c', std::move(labels), det);
  s.read_counter = std::move(read);
  s.counter_baseline = 0;
}

void Registry::gauge_fn(std::string_view name, std::string_view help,
                        Labels labels, Determinism det,
                        std::function<double()> read) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series& s = series_locked(name, help, 'g', std::move(labels), det);
  s.read_gauge = std::move(read);
}

namespace {

/// The self-describing build-identity family: a constant-1 gauge whose
/// labels carry everything a scraper needs to place the sample without
/// fetching the manifest. The thread count varies run to run, so the
/// family is wall-clock class and synthetic: it never registers a series,
/// it is rendered straight into the exposition at its sorted position.
std::string render_build_info() {
  std::string out =
      "# HELP patchwork_build_info Build and runtime identity "
      "(constant 1; values live in the labels)\n"
      "# TYPE patchwork_build_info gauge\n";
  out += "patchwork_build_info{git_describe=\"";
  append_escaped(out, build_git_describe(), /*escape_quotes=*/true);
  out += "\",threads=\"" + std::to_string(util::thread_count()) + "\"} 1\n";
  return out;
}

constexpr std::string_view kBuildInfoFamily = "patchwork_build_info";

}  // namespace

std::string Registry::expose_text(bool deterministic_only) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  // The synthetic family is wall-clock class: deterministic views skip it.
  bool build_info_emitted = deterministic_only || !emit_build_info_;
  for (const auto& [name, family] : families_) {
    if (!build_info_emitted && name > kBuildInfoFamily) {
      out += render_build_info();
      build_info_emitted = true;
    }
    if (deterministic_only && family->det == Determinism::kWallClock) {
      continue;
    }
    out += "# HELP " + name + " ";
    append_escaped(out, family->help, /*escape_quotes=*/false);
    out += "\n# TYPE " + name + " ";
    switch (family->type) {
      case 'c': out += "counter"; break;
      case 'g': out += "gauge"; break;
      case 'h': out += "histogram"; break;
    }
    out += "\n";
    for (const auto& [key, s] : family->series) {
      if (family->type == 'c') {
        out += name + s.labels_text + " " +
               std::to_string(s.counter_value()) + "\n";
      } else if (family->type == 'g') {
        out += name + s.labels_text + " " + format_double(s.gauge_value()) +
               "\n";
      } else {
        const std::vector<std::uint64_t> buckets =
            s.hist ? s.hist->buckets() : std::vector<std::uint64_t>{};
        std::uint64_t cumulative = 0;
        for (std::size_t k = 0; k < buckets.size(); ++k) {
          cumulative += buckets[k];
          out += name + "_bucket" +
                 with_le(s.labels_text,
                         std::to_string(util::Log2Histogram::bucket_hi(k))) +
                 " " + std::to_string(cumulative) + "\n";
        }
        out += name + "_bucket" + with_le(s.labels_text, "+Inf") + " " +
               std::to_string(cumulative) + "\n";
        out += name + "_sum" + s.labels_text + " " +
               std::to_string(s.hist ? s.hist->sum() : 0) + "\n";
        out += name + "_count" + s.labels_text + " " +
               std::to_string(cumulative) + "\n";
      }
    }
  }
  if (!build_info_emitted) out += render_build_info();
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, family] : families_) {
    for (auto& [key, s] : family->series) {
      if (s.counter) s.counter->reset();
      if (s.gauge) s.gauge->reset();
      if (s.hist) s.hist->reset();
      if (s.read_counter) s.counter_baseline = s.read_counter();
    }
  }
  // Pull sources with max semantics (pool high-water marks) cannot be
  // re-baselined by subtraction; reset them at the source.
  util::shared_pool().reset_stats();
}

std::vector<Registry::SeriesValue> Registry::snapshot_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SeriesValue> out;
  for (const auto& [name, family] : families_) {
    for (const auto& [key, s] : family->series) {
      SeriesValue v;
      v.name = name;
      v.labels = s.labels_text;
      v.type = family->type;
      v.det = family->det;
      if (family->type == 'c') {
        v.count = s.counter_value();
      } else if (family->type == 'g') {
        v.gauge = s.gauge_value();
      } else if (s.hist) {
        v.count = s.hist->count();
        v.sum = s.hist->sum();
      }
      out.push_back(std::move(v));
    }
  }
  return out;
}

// --- Process-wide registry + built-in pull metrics -------------------------

namespace {

/// Register the pull-style series for subsystems obs sits above in the
/// layering: the shared worker pool's scheduling stats and the logger's
/// bounded-buffer drop count.
void register_builtins(Registry& reg) {
  // Scrapes of the live process are self-describing without the manifest.
  reg.enable_build_info();
  // Scheduling telemetry is inherently thread-count-dependent: kWallClock.
  reg.gauge_fn("patchwork_pool_workers", "Worker threads in the shared pool",
               {}, Determinism::kWallClock,
               [] { return static_cast<double>(util::shared_pool().size()); });
  reg.gauge_fn("patchwork_pool_queue_depth",
               "Tasks currently queued in the shared pool", {},
               Determinism::kWallClock, [] {
                 return static_cast<double>(
                     util::shared_pool().stats().queue_depth);
               });
  reg.gauge_fn("patchwork_pool_queue_depth_high_water",
               "Highest queued-task count observed since the last reset", {},
               Determinism::kWallClock, [] {
                 return static_cast<double>(
                     util::shared_pool().stats().queue_depth_high_water);
               });
  reg.counter_fn("patchwork_pool_tasks_total",
                 "Tasks executed by the shared pool", {},
                 Determinism::kWallClock,
                 [] { return util::shared_pool().stats().tasks_executed; });
  reg.counter_fn("patchwork_pool_tasks_stolen_total",
                 "Group tasks migrated off another worker's deque by the "
                 "work-stealing scheduler",
                 {}, Determinism::kWallClock,
                 [] { return util::shared_pool().stats().tasks_stolen; });
  reg.counter_fn(
      "patchwork_pool_task_wait_ns_total",
      "Total nanoseconds tasks spent queued before a worker picked them up",
      {}, Determinism::kWallClock,
      [] { return util::shared_pool().stats().task_wait_ns_total; });
  reg.counter_fn(
      "patchwork_pool_busy_ns_total",
      "Total nanoseconds workers spent executing tasks (utilization "
      "numerator)",
      {}, Determinism::kWallClock,
      [] { return util::shared_pool().stats().task_run_ns_total; });
  // Log drops depend only on each logger's record sequence and cap, never
  // on scheduling: deterministic.
  reg.counter_fn("patchwork_log_dropped_records_total",
                 "Oldest records evicted by bounded-buffer loggers", {},
                 Determinism::kDeterministic,
                 [] { return util::logger_dropped_total(); });
}

}  // namespace

Registry& registry() {
  // Leaked singleton: expose paths can run arbitrarily late (atexit
  // handlers, static destructors of other TUs), so the registry must not
  // be torn down before them.
  static Registry* instance = [] {
    auto* reg = new Registry();
    register_builtins(*reg);
    return reg;
  }();
  return *instance;
}

std::string expose_text(bool deterministic_only) {
  return registry().expose_text(deterministic_only);
}

bool expose_to_file(const std::string& path, bool deterministic_only) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << registry().expose_text(deterministic_only);
  return static_cast<bool>(out);
}

}  // namespace patchwork::obs
