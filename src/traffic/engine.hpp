// Traffic engine: binds workload profiles to a federation and drives port
// loads over time.
//
// Rate plane: every switch port gets a persistent base utilization (drawn
// from a distribution calibrated to Section 5's finding that 50% of ports
// sit at <= 38% utilization while some run at line rate), modulated by the
// testbed-wide ActivityModel. The packet plane (traffic/flowgen.hpp)
// plans each sample window from a port's mirrored rate and its site's
// profile().
#pragma once

#include <vector>

#include "testbed/activity_model.hpp"
#include "testbed/federation.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace patchwork::traffic {

class TrafficEngine {
 public:
  /// Burst structure of port activity (finding B3: "FABRIC link
  /// utilization is often low, but it sometimes spikes to capacity.
  /// Background network activity is highly variable"). A port transmits in
  /// bursts: during a fraction `duty_cycle` of each of its activity
  /// periods it runs near its drawn peak utilization; otherwise it idles
  /// at `idle_fraction` of that peak. The default duty cycle calibrates
  /// the testbed-wide aggregate to Fig. 6's ~4 Tbps peak week.
  struct Params {
    double duty_cycle = 0.03;
    double idle_fraction = 0.015;
    double min_burst_period_hours = 0.5;
    double max_burst_period_hours = 3.0;
  };

  /// Draws every port's base utilization, phase and burst period from
  /// `rng`.
  TrafficEngine(testbed::Federation& fed, const testbed::ActivityModel& activity,
                std::vector<SiteWorkloadProfile> profiles, util::Rng rng,
                Params params);
  TrafficEngine(testbed::Federation& fed,
                const testbed::ActivityModel& activity,
                std::vector<SiteWorkloadProfile> profiles, util::Rng rng)
      : TrafficEngine(fed, activity, std::move(profiles), rng, Params()) {}

  /// Recompute every port's Tx/Rx rates for simulated time `now` (which is
  /// mapped onto the year via `year_start_offset`). Call before advancing
  /// switch counters.
  void update_loads(util::Nanos now);

  /// Persistent base utilization of a port (before activity modulation).
  double base_utilization(testbed::GlobalPortId port) const;

  /// Override a port's persistent base utilization (values above 1 pin the
  /// port at line rate regardless of seasonal modulation). Used by tests
  /// and benches to stage hot ports.
  void set_base_utilization(testbed::GlobalPortId port, double value);

  const SiteWorkloadProfile& profile(testbed::SiteId site) const {
    return profiles_.at(site.value);
  }

  /// Map simulated time to a fraction of the year, for seasonality.
  double year_fraction(util::Nanos now) const;

  /// Offset into the year at t=0 (e.g. start the simulation in December).
  void set_year_start_offset(util::Nanos offset) { year_offset_ = offset; }

  const Params& params() const { return params_; }

 private:
  testbed::Federation& fed_;
  const testbed::ActivityModel& activity_;
  std::vector<SiteWorkloadProfile> profiles_;
  Params params_;
  util::Nanos year_offset_ = 0;
  /// base_util_[site][port]: the port's peak (in-burst) utilization.
  std::vector<std::vector<double>> base_util_;
  /// Slowly-varying per-port jitter phase, for sample-to-sample variation.
  std::vector<std::vector<double>> phase_;
  /// Per-port burst period (hours) for the on/off activity process.
  std::vector<std::vector<double>> burst_period_;
};

/// Draw from the port-utilization distribution of Section 5: median ~0.38,
/// a long upper tail, and a ~4% chance of a line-rate port.
double draw_port_utilization(util::Rng& rng, double scale);

}  // namespace patchwork::traffic
