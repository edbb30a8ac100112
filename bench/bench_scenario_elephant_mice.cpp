// Scenario: elephant vs. mice under mirror-delivery loss.
//
// The event planner's heavy-tailed durations split a window's flows into a
// few elephants (bulk transfers, most of the bytes) and a crowd of mice
// (short chatter flows, most of the flow count). The data plane's
// delivery rule drops frames uniformly on the delivery substream — but
// uniform frame loss is not uniform *flow* loss: a mouse that contributes
// four frames can lose its entire observable existence to a few unlucky
// draws, while an elephant sheds the same fraction and still dominates the
// capture. This bench plans one event-model window on the profiler's plan
// substream, renders it unit by unit on the unit substreams so every frame
// keeps its unit, merges in the data plane's (timestamp, unit, frame)
// order, applies Bernoulli keeps on the delivery substream, attributes
// every dropped frame/byte to its class, and counts the render units wiped
// out entirely at each delivery fraction.
//
// The per-unit render is the bench's own, for the attribution. The worker
// sweep renders the same plan through core::render_window, the profiler's
// data plane, at 0 (serial), 2, 4 and 8 workers; each merged position's
// timestamp and wire length must match the bench's sequence, or the bench
// exits 1. Speedups divide the serial render_window time, taken after one
// warm-up render, by each worker count's time.
//
// Build & run:  ./build/bench/bench_scenario_elephant_mice
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/window_render.hpp"
#include "flowsched/event_gen.hpp"
#include "net/frame_store.hpp"
#include "traffic/flowgen.hpp"
#include "traffic/workload.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace patchwork;

constexpr std::uint64_t kSeed = 9090;

traffic::WindowParams window_params() {
  traffic::WindowParams params;
  params.duration = 20 * util::kSecond;
  params.target_bps = 4e9;
  params.max_frames = 40000;
  return params;
}

flowsched::FlowModelConfig flow_config() {
  flowsched::FlowModelConfig config;
  config.model = flowsched::FlowModel::kEvent;
  config.flows_per_second = 40.0;
  config.mean_flow_duration_s = 4.0;
  config.pareto_shape = 1.1;  // Heavier tail: starker elephants.
  config.flow_keys = 128;
  return config;
}

/// Elephant = a unit whose frame volume exceeds the event planner's mice
/// ceiling (non-bulk flows are clamped to 50 data frames; ACK units carry
/// a fifth of their data unit). With heavy-tailed durations this separates
/// the few long activations holding most of the bytes from the crowd of
/// short ones — classification by volume, not by frame size, because a
/// short-lived bulk flow is still a mouse on the wire.
bool is_elephant(const traffic::RenderUnit& unit) {
  return unit.frames > (unit.acks ? 10 : 50);
}

/// One frame of the merged window, tagged with its source unit and class.
struct MergedFrame {
  util::Nanos ts = 0;
  std::size_t unit = 0;
  std::uint64_t j = 0;
  std::size_t wire = 0;
  bool elephant = false;
};

struct RenderedWindow {
  double ms = 0.0;  ///< Per-unit render and merge; the plan is not timed.
  traffic::WindowPlan plan;
  std::vector<MergedFrame> merged;
};

/// Plan on the plan substream, render unit u on unit substream u and merge
/// in the data plane's order, keeping each frame's unit and class.
RenderedWindow render_attributed(const traffic::SiteWorkloadProfile& profile) {
  RenderedWindow out;
  const traffic::WindowParams params = window_params();
  util::Rng root(kSeed);
  util::Rng plan_rng = root.split(traffic::kWindowPlanStream);
  out.plan = flowsched::plan_event_window(plan_rng, profile, params,
                                          flow_config());
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<net::FrameStore> stores(out.plan.units.size());
  net::FrameBuilder builder;
  for (std::size_t u = 0; u < out.plan.units.size(); ++u) {
    const util::RngBlock draws(
        root.split(traffic::kWindowUnitStreamBase + u));
    const traffic::RenderUnit& unit = out.plan.units[u];
    traffic::render_unit(out.plan.flows[unit.flow], unit, draws,
                         params.duration, 0, unit.frames, builder, stores[u]);
  }
  for (std::size_t u = 0; u < stores.size(); ++u) {
    const bool elephant = is_elephant(out.plan.units[u]);
    for (std::size_t i = 0; i < stores[u].size(); ++i) {
      out.merged.push_back(MergedFrame{stores[u].view(i).timestamp, u,
                                       static_cast<std::uint64_t>(i),
                                       stores[u].view(i).bytes.size(),
                                       elephant});
    }
  }
  std::sort(out.merged.begin(), out.merged.end(),
            [](const MergedFrame& a, const MergedFrame& b) {
              if (a.ts != b.ts) return a.ts < b.ts;
              if (a.unit != b.unit) return a.unit < b.unit;
              return a.j < b.j;
            });
  const auto t1 = std::chrono::steady_clock::now();
  out.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return out;
}

struct ClassTally {
  std::uint64_t offered_frames = 0;
  double offered_bytes = 0.0;
  std::uint64_t dropped_frames = 0;
  double dropped_bytes = 0.0;
};

struct LossAttribution {
  ClassTally elephants;
  ClassTally mice;
  std::size_t mice_units_wiped = 0;      ///< Units losing every frame.
  std::size_t elephant_units_wiped = 0;
};

/// Bernoulli keeps on the delivery substream over the merged order — the
/// exact rule the profiler applies — attributed per class.
LossAttribution attribute_loss(const RenderedWindow& window,
                               double delivery) {
  util::Rng root(kSeed);
  const util::RngBlock draws(root.split(traffic::kWindowDeliveryStream));
  std::vector<std::uint8_t> keep(window.merged.size());
  draws.chance_fill(0, delivery, keep);

  LossAttribution out;
  std::vector<std::uint64_t> unit_kept(window.plan.units.size(), 0);
  for (std::size_t j = 0; j < window.merged.size(); ++j) {
    const MergedFrame& f = window.merged[j];
    ClassTally& tally = f.elephant ? out.elephants : out.mice;
    ++tally.offered_frames;
    tally.offered_bytes += static_cast<double>(f.wire);
    if (keep[j] != 0) {
      ++unit_kept[f.unit];
    } else {
      ++tally.dropped_frames;
      tally.dropped_bytes += static_cast<double>(f.wire);
    }
  }
  for (std::size_t u = 0; u < window.plan.units.size(); ++u) {
    if (window.plan.units[u].frames == 0 || unit_kept[u] != 0) continue;
    if (is_elephant(window.plan.units[u])) {
      ++out.elephant_units_wiped;
    } else {
      ++out.mice_units_wiped;
    }
  }
  return out;
}

/// Render `window.plan` through the data plane at the current worker
/// count, without delivery loss, and check each merged position's
/// timestamp and wire length against the bench's own merge.
bool matches_data_plane(const RenderedWindow& window, double* ms) {
  const auto t0 = std::chrono::steady_clock::now();
  const core::RenderedWindow rendered =
      core::render_window(window.plan, util::Rng(kSeed),
                          window_params().duration, 1.0, {});
  const auto t1 = std::chrono::steady_clock::now();
  *ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (rendered.frames.size() != window.merged.size()) return false;
  for (std::size_t i = 0; i < window.merged.size(); ++i) {
    if (rendered.frames[i].timestamp != window.merged[i].ts ||
        rendered.frames[i].wire_length != window.merged[i].wire) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::banner("Elephants vs. mice: loss attribution under delivery thinning",
                "Section 3 mirror loss; heavy-tailed flow-level workloads");

  const unsigned hw = std::thread::hardware_concurrency();
  const traffic::SiteWorkloadProfile profile = [] {
    util::Rng rng(5);
    return traffic::make_site_profiles(rng, 1).front();
  }();

  const RenderedWindow window = render_attributed(profile);

  std::size_t elephant_units = 0;
  for (const traffic::RenderUnit& u : window.plan.units) {
    if (is_elephant(u)) ++elephant_units;
  }
  std::cout << "window: " << window.merged.size() << " frames across "
            << window.plan.units.size() << " units (" << elephant_units
            << " elephant units, "
            << window.plan.units.size() - elephant_units << " mice units)\n\n";

  std::cout << "delivery   class      byte share   drop share   units wiped\n";
  std::string delivery_rows;
  bool mice_wipe_worse = true;
  for (double delivery : {0.95, 0.85, 0.6}) {
    const LossAttribution loss = attribute_loss(window, delivery);
    const double total_bytes =
        loss.elephants.offered_bytes + loss.mice.offered_bytes;
    const double total_dropped =
        loss.elephants.dropped_bytes + loss.mice.dropped_bytes;
    const double ele_byte_share =
        total_bytes > 0.0 ? loss.elephants.offered_bytes / total_bytes : 0.0;
    const double ele_drop_share =
        total_dropped > 0.0 ? loss.elephants.dropped_bytes / total_dropped
                            : 0.0;
    std::cout << delivery << "       elephants  " << ele_byte_share * 100.0
              << "%      " << ele_drop_share * 100.0 << "%       "
              << loss.elephant_units_wiped << "\n"
              << "           mice       " << (1.0 - ele_byte_share) * 100.0
              << "%      " << (1.0 - ele_drop_share) * 100.0 << "%       "
              << loss.mice_units_wiped << "\n";
    mice_wipe_worse =
        mice_wipe_worse &&
        loss.mice_units_wiped >= loss.elephant_units_wiped;
    if (!delivery_rows.empty()) delivery_rows += ",\n";
    delivery_rows +=
        "    {\"delivery\": " + std::to_string(delivery) +
        ", \"elephant_byte_share\": " + std::to_string(ele_byte_share) +
        ", \"elephant_drop_share\": " + std::to_string(ele_drop_share) +
        ", \"elephant_units_wiped\": " +
        std::to_string(loss.elephant_units_wiped) +
        ", \"mice_units_wiped\": " + std::to_string(loss.mice_units_wiped) +
        ", \"elephant_dropped_frames\": " +
        std::to_string(loss.elephants.dropped_frames) +
        ", \"mice_dropped_frames\": " +
        std::to_string(loss.mice.dropped_frames) + "}";
  }

  // Worker sweep: the data plane renders the same plan; its merged order
  // must match the bench's own at every worker count. The baseline is its
  // serial render, timed after one warm-up render.
  std::cout << "\nper-unit render and merge (bench's own): " << window.ms
            << " ms\n";
  util::set_thread_count(0);
  double serial_ms = 0.0;
  bool all_identical = matches_data_plane(window, &serial_ms);
  all_identical = matches_data_plane(window, &serial_ms) && all_identical;
  util::set_thread_count(std::nullopt);
  std::cout << "workers=0: data-plane render " << serial_ms
            << " ms (baseline), merged order "
            << (all_identical ? "matches" : "DIFFERS") << "\n";
  std::string rows;
  double best_speedup = 0.0, speedup_at_4 = 0.0;
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    util::set_thread_count(threads);
    double ms = 0.0;
    const bool identical = matches_data_plane(window, &ms);
    util::set_thread_count(std::nullopt);
    all_identical = all_identical && identical;
    const double speedup = ms > 0.0 ? serial_ms / ms : 0.0;
    if (threads == 4) speedup_at_4 = speedup;
    best_speedup = std::max(best_speedup, speedup);
    std::cout << "workers=" << threads << ": data-plane render " << ms
              << " ms, merged order " << (identical ? "matches" : "DIFFERS")
              << "\n";
    if (!rows.empty()) rows += ",\n";
    rows += "    {\"workers\": " + std::to_string(threads) +
            ", \"ms\": " + std::to_string(ms) +
            ", \"speedup\": " + std::to_string(speedup) +
            ", \"identical\": " + (identical ? "true" : "false") + "}";
  }

  std::cout << "\n"
            << (all_identical
                    ? "PASS: data-plane merged order matches at 0, 2, 4 and "
                      "8 workers\n"
                    : "FAIL: data-plane merged order differs\n")
            << (mice_wipe_worse
                    ? "PASS: mice lose whole flows at least as often as "
                      "elephants at every delivery fraction\n"
                    : "FAIL: elephants wiped more often than mice\n");

  std::cout << "\nJSON:\n"
            << "{\n"
            << "  \"bench\": \"scenario_elephant_mice\",\n"
            << "  \"note\": \"serial_ms is core::render_window at 0 "
               "workers after one warm-up render; each run renders the same "
               "plan through it, and each speedup divides serial_ms by the "
               "run's ms. per_unit_render_ms is the bench's own per-unit "
               "render and merge.\",\n"
            << "  \"hardware_threads\": " << hw << ",\n"
            << "  \"serial_ms\": " << serial_ms << ",\n"
            << "  \"per_unit_render_ms\": " << window.ms << ",\n"
            << "  \"frames\": " << window.merged.size() << ",\n"
            << "  \"units\": " << window.plan.units.size() << ",\n"
            << "  \"elephant_units\": " << elephant_units << ",\n"
            << "  \"delivery_sweep\": [\n" << delivery_rows << "\n  ],\n"
            << "  \"runs\": [\n" << rows << "\n  ],\n"
            << "  \"best_speedup\": " << best_speedup << ",\n"
            << "  \"speedup_at_4\": " << speedup_at_4 << ",\n"
            << "  \"speedup_judged\": false,\n"
            << "  \"outputs_identical\": "
            << (all_identical ? "true" : "false") << "\n}\n";
  return all_identical && mice_wipe_worse ? 0 : 1;
}
