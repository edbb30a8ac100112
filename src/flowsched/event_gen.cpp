#include "flowsched/event_gen.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <vector>

#include "flowsched/pareto.hpp"
#include "flowsched/zipf.hpp"
#include "obs/metrics.hpp"

namespace patchwork::flowsched {

std::string_view to_string(FlowModel m) {
  switch (m) {
    case FlowModel::kMix: return "mix";
    case FlowModel::kEvent: return "event";
  }
  return "mix";
}

std::string_view to_string(ArrivalProcess a) {
  return a == ArrivalProcess::kExponential ? "exp" : "uniform";
}

std::string_view to_string(DurationProcess d) {
  return d == DurationProcess::kPareto ? "pareto" : "uniform";
}

std::optional<FlowModel> parse_flow_model(std::string_view s) {
  if (s == "mix") return FlowModel::kMix;
  if (s == "event") return FlowModel::kEvent;
  return std::nullopt;
}

std::optional<ArrivalProcess> parse_arrival(std::string_view s) {
  if (s == "exp" || s == "exponential") return ArrivalProcess::kExponential;
  if (s == "uniform") return ArrivalProcess::kUniform;
  return std::nullopt;
}

std::optional<DurationProcess> parse_duration(std::string_view s) {
  if (s == "pareto") return DurationProcess::kPareto;
  if (s == "uniform") return DurationProcess::kUniform;
  return std::nullopt;
}

namespace {

/// Handles into the process registry; every metric here is deterministic
/// class (sums of per-plan adds, max-folds of per-plan high-waters), so
/// the byte-comparable exposition covers the event model too.
struct EventMetrics {
  obs::Counter& generated;
  obs::Counter& expired;
  obs::Counter& churn;
  obs::Counter& suppressed;
  obs::Gauge& active_max;
  obs::Gauge& queue_max;
};

EventMetrics& event_metrics() {
  static EventMetrics m{
      obs::registry().counter(
          "patchwork_flowsched_flows_generated_total",
          "Flow arrivals admitted by the event-driven planner."),
      obs::registry().counter(
          "patchwork_flowsched_flows_expired_total",
          "Flow expiry events fired inside planned windows."),
      obs::registry().counter(
          "patchwork_flowsched_churn_replacements_total",
          "Flow-key churn replacements applied by the event-driven planner."),
      obs::registry().counter(
          "patchwork_flowsched_arrivals_suppressed_total",
          "Flow arrivals dropped because the active-flow pool was full."),
      obs::registry().gauge(
          "patchwork_flowsched_active_flows_max",
          "High-water concurrently active flows in any planned window."),
      obs::registry().gauge(
          "patchwork_flowsched_event_queue_depth_max",
          "High-water event-queue depth in any planned window."),
  };
  return m;
}

enum class EventKind : std::uint8_t { kArrival, kExpiry, kChurn };

struct Event {
  util::Nanos at = 0;
  std::uint64_t seq = 0;  ///< Scheduling order; makes the order total.
  EventKind kind = EventKind::kArrival;
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};

/// Backstops against degenerate knob combinations (e.g. millions of
/// arrivals in one 20 s window); plans stay bounded in time and memory.
constexpr std::size_t kMaxEvents = 200000;
constexpr std::size_t kMaxActivations = 50000;

}  // namespace

traffic::WindowPlan plan_event_window(util::Rng& rng,
                                      const traffic::SiteWorkloadProfile& profile,
                                      const traffic::WindowParams& params,
                                      const FlowModelConfig& config,
                                      EventPlanStats* stats_out) {
  traffic::WindowPlan plan;
  plan.offered_bps = params.target_bps;
  EventPlanStats stats;
  if (stats_out) *stats_out = stats;
  if (params.target_bps <= 0.0) return plan;

  const double duration_s = util::to_seconds(params.duration);
  const double lambda = std::max(config.flows_per_second, 1e-3);
  const double mean_dur_s = std::max(config.mean_flow_duration_s, 1e-6);

  // The bounded key pool: every arrival picks one of n_keys 5-tuples by
  // Zipf rank. plan.flows holds append-only key versions; rank r's current
  // spec is plan.flows[current[r]], and a churn event appends a fresh
  // version and repoints its rank. No spec is overwritten or copied: each
  // unit names the version its flow held at arrival.
  const std::size_t n_keys = std::max<std::size_t>(config.flow_keys, 1);
  std::vector<traffic::FlowSpec>& versions = plan.flows;
  versions.reserve(n_keys);
  std::vector<std::uint32_t> current(n_keys);
  for (std::size_t i = 0; i < n_keys; ++i) {
    versions.push_back(traffic::draw_flow(rng, profile));
    current[i] = static_cast<std::uint32_t>(i);
  }
  const ZipfSampler zipf(n_keys, config.zipf_param);

  // BESS-style rate derivation: steady-state concurrency is
  // lambda * mean duration, and the per-flow packet rate is whatever makes
  // the aggregate hit the port's target_bps given the popularity-weighted
  // mean data-frame size of the key pool.
  const double concurrent = std::max(1.0, lambda * mean_dur_s);
  double mean_frame = 0.0;
  for (std::size_t r = 0; r < n_keys; ++r) {
    mean_frame += zipf.probability(r) *
                  static_cast<double>(versions[r].data_frame_size);
  }
  mean_frame = std::max(mean_frame, 64.0);
  const double total_pps = params.target_bps / (8.0 * mean_frame);
  const double flow_pps = std::max(total_pps / concurrent, 1e-9);

  const ParetoDurations pareto(config.pareto_shape, mean_dur_s);
  auto draw_duration_ns = [&](util::Rng& r) -> util::Nanos {
    const double s = config.duration == DurationProcess::kPareto
                         ? pareto.draw(r)
                         : r.uniform(0.0, 2.0 * mean_dur_s);
    return std::max<util::Nanos>(util::from_seconds(s), 1);
  };
  auto draw_gap_ns = [&](util::Rng& r) -> util::Nanos {
    const double s = config.arrival == ArrivalProcess::kExponential
                         ? r.exponential(1.0 / lambda)
                         : r.uniform(0.0, 2.0 / lambda);
    return std::max<util::Nanos>(util::from_seconds(s), 1);
  };

  std::priority_queue<Event, std::vector<Event>, EventAfter> queue;
  std::uint64_t seq = 0;
  auto push = [&](util::Nanos at, EventKind kind) {
    queue.push(Event{at, seq++, kind});
    stats.max_queue_depth = std::max(stats.max_queue_depth, queue.size());
  };

  // At most max_active flows live at once; an arrival beyond that is
  // suppressed and counted, never admitted.
  const std::size_t max_active =
      std::max<std::size_t>(config.max_active_flows, 1);
  std::size_t active = 0;
  std::vector<traffic::FlowActivity> activity;
  activity.reserve(static_cast<std::size_t>(
      std::min(concurrent + lambda * duration_s, 4096.0)));

  // Admit one arrival at `at`: Zipf key pick, then duration draw. The draw
  // order is fixed whether or not the flow is admitted, so suppression
  // never shifts later events' randomness.
  auto admit = [&](util::Nanos at) {
    const std::size_t rank = zipf.draw(rng);
    const util::Nanos dur = draw_duration_ns(rng);
    if (activity.size() >= kMaxActivations || active == max_active) {
      ++stats.arrivals_suppressed;
      return;
    }
    const util::Nanos end = std::min<util::Nanos>(at + dur, params.duration);
    activity.push_back(traffic::FlowActivity{
        current[rank], flow_pps * util::to_seconds(end - at), at, end - 1});
    ++active;
    stats.max_active_flows = std::max(stats.max_active_flows, active);
    ++stats.flows_generated;
    push(end, EventKind::kExpiry);
  };

  // Ramp-up: the window opens at steady-state concurrency instead of
  // spending ~one mean duration filling from empty.
  const std::size_t initial = static_cast<std::size_t>(
      std::min(concurrent + 0.5, static_cast<double>(max_active)));
  for (std::size_t i = 0; i < initial; ++i) admit(0);
  push(draw_gap_ns(rng), EventKind::kArrival);
  const util::Nanos churn_gap =
      config.churn_fpm > 0.0
          ? std::max<util::Nanos>(util::from_seconds(60.0 / config.churn_fpm), 1)
          : 0;
  if (churn_gap > 0) push(churn_gap, EventKind::kChurn);

  std::size_t processed = 0;
  while (!queue.empty() && processed < kMaxEvents) {
    const Event ev = queue.top();
    queue.pop();
    ++processed;
    if (ev.at > params.duration) break;
    switch (ev.kind) {
      case EventKind::kArrival:
        if (ev.at >= params.duration) break;
        admit(ev.at);
        if (const util::Nanos next = ev.at + draw_gap_ns(rng);
            next < params.duration) {
          push(next, EventKind::kArrival);
        }
        break;
      case EventKind::kExpiry:
        --active;
        ++stats.flows_expired;
        break;
      case EventKind::kChurn: {
        if (ev.at >= params.duration) break;
        // Rebind a popularity-weighted rank to a fresh 5-tuple: active
        // flows keep their version, future arrivals see the new one.
        const std::size_t rank = zipf.draw(rng);
        versions.push_back(traffic::draw_flow(rng, profile));
        current[rank] = static_cast<std::uint32_t>(versions.size() - 1);
        ++stats.churn_replacements;
        if (const util::Nanos next = ev.at + churn_gap;
            next < params.duration) {
          push(next, EventKind::kChurn);
        }
        break;
      }
    }
  }

  // The planner's last sequential draws: the fractional-frame coins.
  traffic::plan_units(rng, activity, params, plan);

  EventMetrics& m = event_metrics();
  m.generated.add(stats.flows_generated);
  m.expired.add(stats.flows_expired);
  m.churn.add(stats.churn_replacements);
  m.suppressed.add(stats.arrivals_suppressed);
  m.active_max.observe_max(static_cast<double>(stats.max_active_flows));
  m.queue_max.observe_max(static_cast<double>(stats.max_queue_depth));
  if (stats_out) *stats_out = stats;
  return plan;
}

}  // namespace patchwork::flowsched
