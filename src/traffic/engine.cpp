#include "traffic/engine.hpp"

#include <algorithm>
#include <cmath>

namespace patchwork::traffic {

double draw_port_utilization(util::Rng& rng, double scale) {
  double u;
  const double archetype = rng.uniform();
  if (archetype < 0.04) {
    u = 1.0;  // Line-rate ports exist (R4.Q1).
  } else if (archetype < 0.14) {
    u = rng.uniform(0.5, 0.98);  // Busy experiment ports.
  } else if (archetype < 0.30) {
    u = rng.uniform(0.0, 0.05);  // Nearly idle.
  } else {
    // Body: median of the overall mixture lands near 0.38.
    u = rng.uniform(0.08, 0.75);
  }
  return std::clamp(u * scale, 0.0, 1.0);
}

TrafficEngine::TrafficEngine(testbed::Federation& fed,
                             const testbed::ActivityModel& activity,
                             std::vector<SiteWorkloadProfile> profiles,
                             util::Rng rng, Params params)
    : fed_(fed),
      activity_(activity),
      profiles_(std::move(profiles)),
      params_(params) {
  base_util_.resize(fed_.site_count());
  phase_.resize(fed_.site_count());
  burst_period_.resize(fed_.site_count());
  for (testbed::SiteId sid : fed_.site_ids()) {
    const testbed::Site& site = fed_.site(sid);
    const double scale = profiles_.at(sid.value).utilization_scale;
    auto& utils = base_util_[sid.value];
    auto& phases = phase_[sid.value];
    auto& periods = burst_period_[sid.value];
    utils.resize(site.tor().port_count());
    phases.resize(site.tor().port_count());
    periods.resize(site.tor().port_count());
    for (std::size_t p = 0; p < utils.size(); ++p) {
      utils[p] = draw_port_utilization(rng, scale);
      phases[p] = rng.uniform(0.0, 2.0 * M_PI);
      periods[p] = rng.uniform(params_.min_burst_period_hours,
                               params_.max_burst_period_hours);
    }
  }
}

double TrafficEngine::year_fraction(util::Nanos now) const {
  const double year_ns = 365.0 * static_cast<double>(util::kDay);
  double f = std::fmod(static_cast<double>(now + year_offset_), year_ns) /
             year_ns;
  if (f < 0.0) f += 1.0;
  return f;
}

double TrafficEngine::base_utilization(testbed::GlobalPortId port) const {
  return base_util_.at(port.site.value).at(port.port.value);
}

void TrafficEngine::set_base_utilization(testbed::GlobalPortId port,
                                         double value) {
  base_util_.at(port.site.value).at(port.port.value) = value;
}

void TrafficEngine::update_loads(util::Nanos now) {
  const double season = activity_.at_year_fraction(year_fraction(now));
  const double t_hours = util::to_seconds(now) / 3600.0;
  for (testbed::SiteId sid : fed_.site_ids()) {
    testbed::Site& site = fed_.site(sid);
    const SiteWorkloadProfile& prof = profiles_.at(sid.value);
    for (std::uint32_t p = 0; p < site.tor().port_count(); ++p) {
      testbed::SwitchPort& port = site.tor().mutable_port(testbed::PortId{p});
      // On/off burst process: a port transmits near its peak utilization
      // only during a `duty_cycle` fraction of each of its activity
      // periods. This yields B3's "often low, sometimes spikes" profile
      // and calibrates the Fig. 6 aggregate. A higher seasonal multiplier
      // lengthens bursts (more experiments running).
      const double period = burst_period_[sid.value][p];
      const double pos = std::fmod(
          t_hours / period + phase_[sid.value][p] / (2.0 * M_PI), 1.0);
      const double duty = std::min(1.0, params_.duty_cycle * season);
      const bool in_burst = pos < duty;
      // Wobble keeps successive samples from being identical.
      const double wobble =
          1.0 + 0.35 * std::sin(t_hours / 5.3 + phase_[sid.value][p]) +
          0.2 * std::sin(t_hours / 0.9 + 2.0 * phase_[sid.value][p]);
      const double level = in_burst ? 1.0 : params_.idle_fraction;
      const double util = std::clamp(
          base_util_[sid.value][p] * level * std::max(0.0, wobble), 0.0,
          1.0);
      const double rate = util * port.line_rate_bps();
      // Tx/Rx asymmetry: data direction dominates.
      port.set_rates(rate, rate * 0.55);
      // Mean frame size follows the site's jumbo share; ACK minis drag the
      // mean down a little.
      const double mean_frame =
          prof.jumbo_fraction * static_cast<double>(prof.mtu_frame_size) +
          (1.0 - prof.jumbo_fraction) * 700.0;
      port.set_mean_frame_size(mean_frame);
    }
  }
}

}  // namespace patchwork::traffic
