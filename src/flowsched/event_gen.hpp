// Event-driven flow-level window planner.
//
// Where traffic::plan_window draws a static per-window flow population,
// plan_event_window simulates the window: a priority queue of
// arrival / expiry / churn events ordered by (time, sequence) is drained
// in order, and every stochastic choice — interarrival gaps, durations,
// Zipf key picks, churn redraws — consumes the caller's Rng sequentially
// in that event order. The result is still a traffic::WindowPlan: each
// flow activation becomes RenderUnits bounded to its active interval
// (ts_lo/ts_hi), so rendering stays pure counter addressing through
// render_unit / build_many_into and the window's bytes are identical for
// any worker count.
//
// Substream discipline matches the mix model exactly: the planner runs on
// the kWindowPlanStream substream and is the only sequential consumer;
// units are rendered from split(kWindowUnitStreamBase + u) downstream.
#pragma once

#include <cstdint>

#include "flowsched/config.hpp"
#include "traffic/flowgen.hpp"
#include "util/rng.hpp"

namespace patchwork::flowsched {

/// Deterministic per-plan accounting (also pushed into the obs registry:
/// counters fold as sums, high-waters as max — both schedule-independent).
struct EventPlanStats {
  std::uint64_t flows_generated = 0;      ///< Arrivals admitted.
  std::uint64_t flows_expired = 0;        ///< Expiry events fired.
  std::uint64_t churn_replacements = 0;   ///< Key redraws applied.
  std::uint64_t arrivals_suppressed = 0;  ///< Dropped: at max_active_flows.
  std::size_t max_active_flows = 0;       ///< Concurrency high-water.
  std::size_t max_queue_depth = 0;        ///< Event-queue high-water.
};

/// Simulate one window's flow arrivals/departures and emit the render
/// plan. Consumes `rng` sequentially (call with the kWindowPlanStream
/// substream, exactly like plan_window). `stats_out`, when non-null,
/// receives the window's event accounting; the same numbers are added to
/// the process obs registry either way.
traffic::WindowPlan plan_event_window(util::Rng& rng,
                                      const traffic::SiteWorkloadProfile& profile,
                                      const traffic::WindowParams& params,
                                      const FlowModelConfig& config,
                                      EventPlanStats* stats_out = nullptr);

}  // namespace patchwork::flowsched
