// Per-site Patchwork profiling instance group.
//
// One SiteProfiler owns everything Patchwork does inside a single FABRIC
// site (Section 6.2): the setup phase with iterative back-off, the
// sampling phase with port cycling and congestion detection, the watchdog,
// and the gathering of pcaps + logs for the coordinator. Instances at
// different sites are fully independent (requirement R3) — the coordinator
// simply runs one SiteProfiler per site.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/digest.hpp"
#include "capture/session.hpp"
#include "core/config.hpp"
#include "core/congestion.hpp"
#include "core/environment.hpp"
#include "core/port_selector.hpp"
#include "host/host_system.hpp"
#include "testbed/allocator.hpp"
#include "util/logging.hpp"

namespace patchwork::core {

/// Outcome classification used by Fig. 10.
enum class RunOutcome : std::uint8_t {
  kSuccess,     ///< Full allocation, sampling completed.
  kDegraded,    ///< Completed after scaling down via back-off.
  kFailed,      ///< Could not allocate resources / backend error.
  kIncomplete,  ///< Instance crashed mid-run (watchdog caught it).
};

std::string_view to_string(RunOutcome o);

struct SetupResult {
  bool ok = false;
  std::uint32_t instances_granted = 0;
  std::uint32_t backoffs_used = 0;
  std::optional<testbed::AllocError> error;
  util::Nanos allocation_latency = 0;
};

class SiteProfiler {
 public:
  SiteProfiler(Environment& env, testbed::SiteId site, ProfilerConfig config,
               host::HostSpec host = {});

  /// Setup phase (Section 6.2.1): discover resources, run an allocation
  /// simulation, request the slice, backing off on scarcity.
  SetupResult setup();

  /// Sampling phase (Section 6.2.2): cycles x runs x samples, with port
  /// cycling, congestion detection, watchdog, and instance logging.
  ///
  /// Control/data split: run() executes only the control plane — port
  /// cycling, mirror (re)configuration, congestion detection and
  /// mitigation, the watchdog — and snapshots every sampling decision as a
  /// PendingSample. The data plane (traffic synthesis, capture, pcap
  /// serialization) is rendered later, one render_sample() per pending
  /// sample, so the coordinator can fan samples out across worker threads
  /// while the shared simulation state is only ever touched serially.
  RunOutcome run();

  /// Render ONE pending sample (index k into the run() snapshot order) from
  /// its own RNG substream: plan the window, render it through
  /// render_window(), and capture it through the configured method. Const
  /// and free of shared mutable state — the coordinator schedules every
  /// (site, sample) pair as an independent pool task on its own substream
  /// of the run seed, so the pcap bytes do not depend on which thread
  /// renders which sample. The per-sample log line lands in the
  /// returned capture's log bundle; commit_rendered replays it into the
  /// instance log.
  analysis::RawCapture render_sample(std::size_t k, util::Rng& rng) const;

  /// Accept the rendered captures back, in sample order (rendered[k] must
  /// come from render_sample(k)): appends them to the gather() bundle,
  /// replays their log lines into the instance log, and clears the pending
  /// snapshot. Serial — call from one thread after all renders complete.
  void commit_rendered(std::vector<analysis::RawCapture> rendered);

  /// Samples recorded by run() and not yet rendered.
  std::size_t pending_sample_count() const { return pending_.size(); }

  /// Gathering phase (Section 6.2.3): hand the pcaps + logs over. The
  /// profiler keeps nothing. Call after commit_rendered().
  std::vector<analysis::RawCapture> gather();

  /// Yield resources back to the testbed (Fig. 7, step 5).
  void teardown();

  const util::Logger& log() const { return log_; }
  const SetupResult& setup_result() const { return setup_result_; }
  std::uint32_t monitored_port_slots() const;

  // --- Dynamic scaling (Section 6.3 limitation 2) -------------------------
  /// Instances currently held: the start-up baseline plus runtime extras.
  std::uint32_t current_instances() const;
  /// The contention signal the scaler reacts to, derived from the site's
  /// NIC inventory and testbed-wide telemetry.
  TestbedPressure observe_pressure() const;
  std::uint32_t scale_ups() const { return scale_ups_; }
  std::uint32_t scale_downs() const { return scale_downs_; }

  /// Storage granted to this profiler's slice (watchdog budget).
  std::uint64_t storage_budget() const;

 private:
  struct MirrorSlot {
    testbed::PortId destination;        ///< Our NIC-facing port.
    std::optional<testbed::PortId> source;  ///< Currently mirrored port.
    PortSelector selector;
    /// -1 for baseline slots; otherwise the index into extra_grants_ that
    /// owns this slot (so shedding releases the right resources).
    int grant_tag = -1;
  };

  /// Apply one scaling decision between cycles (dynamic_scaling only).
  void rescale();
  void add_slots_for_grant(const testbed::SliceGrant& grant, int grant_tag);

  /// Candidate rates for cycling: every site port not already in a mirror
  /// and not one of our NIC ports.
  std::vector<telemetry::PortRate> candidate_rates() const;
  void cycle_ports();
  bool take_sample(MirrorSlot& slot, std::uint32_t cycle, std::uint32_t run,
                   std::uint32_t sample);

  /// One control-plane sampling decision, snapshotted by take_sample() and
  /// rendered later by render_sample(). Holds everything the data plane
  /// needs so rendering reads no mutable simulation state.
  struct PendingSample {
    testbed::PortId source;
    std::uint32_t cycle = 0;
    std::uint32_t run = 0;
    std::uint32_t sample = 0;
    util::Nanos start = 0;           ///< Clock time of the decision.
    double target_bps = 0.0;         ///< Mirrored rate per session directions.
    double delivery = 1.0;           ///< Mirror delivery fraction.
    double drop_fraction = 0.0;      ///< Congestion-estimated drop fraction.
  };

  Environment& env_;
  testbed::SiteId site_;
  ProfilerConfig config_;
  host::HostSpec host_;
  testbed::Allocator allocator_;
  util::Logger log_;
  std::string component_;

  SetupResult setup_result_;
  std::optional<testbed::SliceGrant> grant_;
  std::vector<testbed::SliceGrant> extra_grants_;  ///< Runtime scale-ups.
  std::vector<MirrorSlot> slots_;
  std::vector<PendingSample> pending_;
  std::vector<analysis::RawCapture> captures_;
  /// Worst-case storage admitted by the watchdog. Rendering is deferred, so
  /// admission charges the pcap-format upper bound per sample instead of
  /// the realized size: global header + max_frames * (snaplen + record
  /// header).
  std::uint64_t storage_admitted_ = 0;
  std::uint32_t scale_ups_ = 0;
  std::uint32_t scale_downs_ = 0;
  std::uint64_t lifetime_cycles_ = 0;
  bool crashed_ = false;
};

}  // namespace patchwork::core
