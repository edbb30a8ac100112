// Flow-level workload model configuration.
//
// The mix model (traffic::plan_window) draws a per-window flow population
// from the site profile; it has no notion of flows arriving, living, and
// dying. The event model built here (event_gen.hpp) adds that flow-level
// realism: a priority queue of arrival/expiry/churn events with
// exponential or uniform interarrivals, Pareto or uniform durations
// (measured-mean calibrated, pareto.hpp), Zipf popularity over a bounded
// pool of flow keys (zipf.hpp), a bound on concurrently active flows, and
// flows-per-minute churn that redraws keys. The knobs below mirror the
// exemplars named in ROADMAP: BESS FlowGen's arrival/duration processes
// and the synapse-klee generator's --zipf-param / churn-FPM surface.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace patchwork::flowsched {

/// Which planner synthesizes a sample window.
enum class FlowModel : std::uint8_t {
  kMix,    ///< Per-window population mix (traffic::plan_window).
  kEvent,  ///< Event-driven arrivals/durations (plan_event_window).
};

/// Flow interarrival process.
enum class ArrivalProcess : std::uint8_t { kExponential, kUniform };

/// Flow duration process.
enum class DurationProcess : std::uint8_t { kPareto, kUniform };

std::string_view to_string(FlowModel m);
std::string_view to_string(ArrivalProcess a);
std::string_view to_string(DurationProcess d);

/// Parse the CLI spellings ("event"/"mix", "exp"/"uniform",
/// "pareto"/"uniform"). Returns nullopt on an unknown spelling.
std::optional<FlowModel> parse_flow_model(std::string_view s);
std::optional<ArrivalProcess> parse_arrival(std::string_view s);
std::optional<DurationProcess> parse_duration(std::string_view s);

struct FlowModelConfig {
  FlowModel model = FlowModel::kMix;
  ArrivalProcess arrival = ArrivalProcess::kExponential;
  DurationProcess duration = DurationProcess::kPareto;

  /// Flow arrival rate (flows/s). With mean_flow_duration_s this fixes the
  /// steady-state concurrency: concurrent = flows_per_second * duration.
  double flows_per_second = 40.0;
  /// Configured mean flow lifetime in seconds. The Pareto sampler is
  /// calibrated so its measured mean hits this value (pareto.hpp).
  double mean_flow_duration_s = 5.0;
  /// Pareto tail index for flow durations; < 2 gives the heavy tail the
  /// paper's elephant/mice split needs.
  double pareto_shape = 1.3;

  /// Zipf popularity exponent over the flow-key pool. Default follows
  /// Castan [SIGCOMM'18] via the synapse-klee generator.
  double zipf_param = 1.26;
  /// Bounded flow-key pool: arrivals pick one of this many distinct
  /// 5-tuples by Zipf rank.
  std::size_t flow_keys = 512;
  /// Bound on concurrently active flows. Arrivals beyond it are
  /// suppressed and counted, never admitted.
  std::size_t max_active_flows = 4096;

  /// Key churn in replacements per minute: each churn event rebinds a
  /// Zipf-drawn rank to a freshly drawn 5-tuple, the workload that drives
  /// NetflowCache eviction storms. 0 disables churn.
  double churn_fpm = 0.0;
};

}  // namespace patchwork::flowsched
