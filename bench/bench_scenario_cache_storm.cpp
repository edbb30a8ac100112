// Scenario: NetflowCache eviction storm under flow churn.
//
// A bounded v5 flow cache metering a churning workload lives in a storm:
// every churn replacement introduces a fresh 5-tuple that must displace a
// resident flow (deterministic victim: oldest last-seen, smallest key on
// ties). This bench sweeps the event planner's churn knob, meters each
// rendered window through a capacity-bounded NetflowCache with periodic
// timeout sweeps, and attributes every eviction to its cause — the
// capacity/idle/active/flush split that tells an operator whether their
// cache is sized for the workload or thrashing. The storm is replayed
// twice and the export streams compared record-for-record: eviction order
// is part of the determinism contract, not an accident of map iteration.
//
// Build & run:  ./build/bench/bench_scenario_cache_storm
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/window_render.hpp"
#include "flowsched/event_gen.hpp"
#include "net/parser.hpp"
#include "telemetry/netflow.hpp"
#include "traffic/flowgen.hpp"
#include "traffic/workload.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace patchwork;

constexpr std::uint64_t kSeed = 1337;
constexpr std::size_t kCacheFlows = 64;

traffic::WindowParams window_params() {
  traffic::WindowParams params;
  params.duration = 20 * util::kSecond;
  params.target_bps = 1e9;
  params.max_frames = 20000;
  return params;
}

flowsched::FlowModelConfig flow_config(double churn_fpm) {
  flowsched::FlowModelConfig config;
  config.model = flowsched::FlowModel::kEvent;
  config.flows_per_second = 40.0;
  config.mean_flow_duration_s = 3.0;
  config.flow_keys = 32;
  config.churn_fpm = churn_fpm;
  return config;
}

struct StormResult {
  double ms = 0.0;  ///< Generation + metering wall time.
  std::size_t frames = 0;
  std::uint64_t capacity = 0;
  std::uint64_t idle = 0;
  std::uint64_t active = 0;
  std::uint64_t flush = 0;
  std::vector<telemetry::NetflowRecord> records;
};

/// Generate one window at `churn_fpm` and meter it through the bounded
/// cache, sweeping timeouts once per second of frame time.
StormResult run_storm(const traffic::SiteWorkloadProfile& profile,
                      double churn_fpm) {
  StormResult out;
  const auto t0 = std::chrono::steady_clock::now();
  util::Rng rng(kSeed);
  const util::Rng window_rng = rng.fork();
  util::Rng plan_rng = window_rng.split(traffic::kWindowPlanStream);
  const traffic::WindowPlan plan = flowsched::plan_event_window(
      plan_rng, profile, window_params(), flow_config(churn_fpm));
  const core::RenderedWindow window = core::render_window(
      plan, window_rng, window_params().duration, /*delivery=*/1.0, {});
  out.frames = window.frames.size();

  telemetry::NetflowCache::Config cache_config;
  cache_config.max_flows = kCacheFlows;
  cache_config.idle_timeout = 2 * util::kSecond;
  cache_config.active_timeout = 10 * util::kSecond;
  telemetry::NetflowCache cache(cache_config);

  util::Nanos next_sweep = util::kSecond;
  for (const net::FrameView& frame : window.frames) {
    while (frame.timestamp >= next_sweep) {
      cache.sweep(next_sweep);
      next_sweep += util::kSecond;
    }
    cache.observe(
        net::parse_bytes(frame.bytes, frame.wire_length, frame.timestamp),
        frame.timestamp);
  }
  cache.flush(window_params().duration);
  out.records = cache.drain();

  using Cause = telemetry::NetflowCache::EvictCause;
  out.capacity = cache.evictions(Cause::kCapacity);
  out.idle = cache.evictions(Cause::kIdle);
  out.active = cache.evictions(Cause::kActive);
  out.flush = cache.evictions(Cause::kFlush);
  const auto t1 = std::chrono::steady_clock::now();
  out.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return out;
}

bool records_identical(const std::vector<telemetry::NetflowRecord>& a,
                       const std::vector<telemetry::NetflowRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].src_addr != b[i].src_addr || a[i].dst_addr != b[i].dst_addr ||
        a[i].src_port != b[i].src_port || a[i].dst_port != b[i].dst_port ||
        a[i].protocol != b[i].protocol || a[i].packets != b[i].packets ||
        a[i].octets != b[i].octets || a[i].first_ms != b[i].first_ms ||
        a[i].last_ms != b[i].last_ms) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::banner("NetflowCache eviction storm under flow churn",
                "Section 4 NetFlow comparison point; bounded v5 cache");

  const unsigned hw = std::thread::hardware_concurrency();
  const traffic::SiteWorkloadProfile profile = [] {
    util::Rng rng(5);
    return traffic::make_site_profiles(rng, 1).front();
  }();

  std::cout << "cache: " << kCacheFlows
            << " flows, idle 2 s, active 10 s, sweep every 1 s\n\n";
  std::cout << "churn_fpm   frames   capacity   idle   active   flush   "
               "exported\n";

  util::set_thread_count(1);
  std::string churn_rows;
  StormResult storm;  // The hottest sweep point, reused for determinism.
  double serial_ms = 0.0;
  std::uint64_t quiet_capacity = 0, storm_capacity = 0;
  for (double churn_fpm : {0.0, 120.0, 600.0, 1200.0}) {
    const StormResult result = run_storm(profile, churn_fpm);
    std::cout << churn_fpm << "       " << result.frames << "    "
              << result.capacity << "       " << result.idle << "   "
              << result.active << "      " << result.flush << "      "
              << result.records.size() << "\n";
    if (!churn_rows.empty()) churn_rows += ",\n";
    churn_rows +=
        "    {\"churn_fpm\": " + std::to_string(churn_fpm) +
        ", \"frames\": " + std::to_string(result.frames) +
        ", \"capacity\": " + std::to_string(result.capacity) +
        ", \"idle\": " + std::to_string(result.idle) +
        ", \"active\": " + std::to_string(result.active) +
        ", \"flush\": " + std::to_string(result.flush) +
        ", \"exported\": " + std::to_string(result.records.size()) + "}";
    if (churn_fpm == 0.0) quiet_capacity = result.capacity;
    if (churn_fpm == 1200.0) {
      storm_capacity = result.capacity;
      storm = result;
      serial_ms = result.ms;
    }
  }
  util::set_thread_count(std::nullopt);

  // The determinism contract, under the worker sweep: the storm's export
  // stream — including every capacity-eviction victim choice — must replay
  // record-for-record under any thread-count setting.
  bool all_identical = true;
  std::string rows;
  double best_speedup = 0.0, speedup_at_4 = 0.0;
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    util::set_thread_count(threads);
    const StormResult again = run_storm(profile, 1200.0);
    util::set_thread_count(std::nullopt);
    const bool identical = records_identical(storm.records, again.records) &&
                           again.capacity == storm.capacity &&
                           again.idle == storm.idle &&
                           again.active == storm.active &&
                           again.flush == storm.flush;
    all_identical = all_identical && identical;
    const double speedup = again.ms > 0.0 ? serial_ms / again.ms : 0.0;
    if (threads == 4) speedup_at_4 = speedup;
    best_speedup = std::max(best_speedup, speedup);
    std::cout << "workers=" << threads << ": replay " << again.ms
              << " ms, export stream "
              << (identical ? "identical" : "DIFFERS") << "\n";
    if (!rows.empty()) rows += ",\n";
    rows += "    {\"workers\": " + std::to_string(threads) +
            ", \"ms\": " + std::to_string(again.ms) +
            ", \"speedup\": " + std::to_string(speedup) +
            ", \"identical\": " + (identical ? "true" : "false") + "}";
  }

  const bool churn_drives_evictions = storm_capacity > quiet_capacity;
  std::cout << "\n"
            << (all_identical
                    ? "PASS: eviction storm replays record-for-record\n"
                    : "FAIL: export stream diverged across replays\n")
            << (churn_drives_evictions ? "PASS" : "FAIL")
            << ": capacity evictions rise with churn (" << quiet_capacity
            << " at 0 fpm -> " << storm_capacity << " at 1200 fpm)\n";

  std::cout << "\nJSON:\n"
            << "{\n"
            << "  \"bench\": \"scenario_cache_storm\",\n"
            << "  \"note\": \"Metering is serial by nature; the worker sweep "
               "checks the export stream replays identically.\",\n"
            << "  \"hardware_threads\": " << hw << ",\n"
            << "  \"serial_ms\": " << serial_ms << ",\n"
            << "  \"cache_flows\": " << kCacheFlows << ",\n"
            << "  \"churn_sweep\": [\n" << churn_rows << "\n  ],\n"
            << "  \"runs\": [\n" << rows << "\n  ],\n"
            << "  \"best_speedup\": " << best_speedup << ",\n"
            << "  \"speedup_at_4\": " << speedup_at_4 << ",\n"
            << "  \"speedup_judged\": false,\n"
            << "  \"outputs_identical\": "
            << (all_identical ? "true" : "false") << "\n}\n";
  return all_identical && churn_drives_evictions ? 0 : 1;
}
