// Patchwork run configuration (requirement R5: Tunable Fidelity).
//
// Section 6.2.2: "The user sets the duration of each sample, number of
// samples in each run, and the number of runs between cycles. The user
// also configures packet truncation size and capture pre-processing."
// Defaults follow the paper's production profile runs: 200 B truncation,
// 20 s samples at 5-minute intervals over 12-24 hours.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "capture/config.hpp"
#include "core/scaler.hpp"
#include "flowsched/config.hpp"
#include "testbed/allocator.hpp"
#include "testbed/ids.hpp"
#include "util/units.hpp"

namespace patchwork::core {

/// Port selection methods of Section 6.2.2. The default is the "busiest
/// ports bias, 1/n other non-idle port" heuristic; the others are the
/// alternatives the paper lists, plus user-supplied heuristics.
enum class PortPolicy : std::uint8_t {
  kBusiestBias,   ///< Default heuristic.
  kFixed,         ///< Sampling fixed ports (no cycling).
  kUplinksOnly,   ///< Sampling only uplink ports.
  kRoundRobinAll, ///< Cycling between all ports, including idle ones.
  kCustom,        ///< User-provided heuristic.
};

std::string_view to_string(PortPolicy p);

struct SamplingPlan {
  util::Nanos sample_duration = 20 * util::kSecond;
  util::Nanos sample_interval = 5 * util::kMinute;
  std::uint32_t samples_per_run = 3;
  std::uint32_t runs_per_cycle = 1;
  std::uint32_t cycles = 4;

  PortPolicy policy = PortPolicy::kBusiestBias;
  /// The "n" of the busiest-bias heuristic: during every n-1 cycles a
  /// random non-idle port is picked; during the other cycle, the busiest
  /// port not sampled in the last n cycles.
  std::uint32_t busiest_bias_n = 4;
  /// MFlib window used to rank ports by recent rate.
  util::Nanos rate_window = 15 * util::kMinute;
  /// Ports below this total rate count as idle for the heuristics.
  double idle_threshold_bps = 1e6;
  /// Rendering cap for a sample window's packet-level traffic. The true
  /// offered rate is preserved; only the rendered frame count is bounded.
  std::size_t max_frames_per_sample = 20000;
};

struct ProfilerConfig {
  SamplingPlan plan;
  capture::CaptureConfig capture;
  /// Ports for the kFixed policy (and the slice's ports in
  /// single-experiment mode).
  std::vector<testbed::PortId> fixed_ports;
  /// Profiling instances to request per site; 0 = one per available
  /// dedicated NIC (each instance = 1 VM + 1 dual-port dedicated NIC).
  std::uint32_t desired_instances = 0;
  /// Iterative back-off attempts before declaring the site failed.
  std::uint32_t max_backoffs = 3;
  /// Probability per run that a Patchwork instance crashes (the paper's
  /// "Incomplete" outcomes were "a bug in Patchwork that has since been
  /// fixed"); modelled so Fig. 10 can be reproduced.
  double crash_probability = 0.01;
  /// Testbed allocator behaviour (transient backend failure rate etc.);
  /// benches vary this to recreate Fig. 10's bad-backend days.
  testbed::Allocator::Tuning allocator;

  /// Runtime scaling (Section 6.3 limitation 2 / Section 9 future work):
  /// when enabled, the profiler re-evaluates its footprint between cycles
  /// and grows into idle capacity or sheds extra instances under
  /// contention, per the scaler's nice factor.
  bool dynamic_scaling = false;
  DynamicScaler::Policy scaling;
  /// Telemetry normalization for the activity signal: testbed-wide Tx at
  /// "normal" load. Used to derive TestbedPressure::activity_level.
  double nominal_testbed_bps = 1.5e12;

  /// Compress captures for the gathering-phase download (Section 6.2.3).
  /// The coordinator round-trips each pcap through the compressor and
  /// records the transfer size.
  bool compress_transfers = true;

  /// Congestion mitigation: Section 1 requirement (5) says researchers
  /// "must devise a mechanism to detect or mitigate" mirror
  /// oversubscription. Detection is always on; with this flag Patchwork
  /// also reacts by dropping the mirror to Tx-only, trading the Rx channel
  /// for a complete Tx sample.
  bool congestion_mitigation = false;

  /// Which traffic model plans each sample window: the per-window
  /// population mix (default) or the event-driven flow generator
  /// (arrivals, Pareto durations, Zipf popularity, churn — src/flowsched).
  /// Either way the plan runs on the kWindowPlanStream substream and
  /// rendering stays counter-addressed, so the determinism contract is
  /// model-independent.
  flowsched::FlowModelConfig flow_model;
};

/// Which experiments the profiler may observe (Section 4's Goal): all
/// traffic on the sites, or only the ports belonging to one slice.
enum class ProfileMode : std::uint8_t { kAllExperiment, kSingleExperiment };

std::string_view to_string(ProfileMode m);

}  // namespace patchwork::core
