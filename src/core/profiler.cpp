#include "core/profiler.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "core/window_render.hpp"
#include "flowsched/event_gen.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pcap/pcap.hpp"
#include "traffic/flowgen.hpp"

namespace patchwork::core {

namespace {

// Control-plane events. Everything here runs on the serial coordinator
// thread (Phase 1 of run_sites), so the counts are trivially deterministic.
struct ProfilerMetrics {
  obs::Counter& backoffs = obs::registry().counter(
      "patchwork_profiler_backoffs_total",
      "Allocation back-off steps taken during setup");
  obs::Counter& port_cycles = obs::registry().counter(
      "patchwork_profiler_port_cycles_total",
      "Mirror-source changes applied by port cycling");
  obs::Counter& congestion_detections = obs::registry().counter(
      "patchwork_profiler_congestion_events_total",
      "Congestion-detector verdicts and responses",
      {{"event", "detected"}});
  obs::Counter& congestion_mitigations = obs::registry().counter(
      "patchwork_profiler_congestion_events_total",
      "Congestion-detector verdicts and responses",
      {{"event", "mitigated_tx_only"}});
  obs::Counter& storage_admissions = obs::registry().counter(
      "patchwork_profiler_storage_admissions_total",
      "Samples admitted by the storage watchdog");
  obs::Counter& storage_admitted_bytes = obs::registry().counter(
      "patchwork_profiler_storage_admitted_bytes_total",
      "Worst-case bytes charged against storage budgets");
  obs::Counter& watchdog_storage = obs::registry().counter(
      "patchwork_profiler_watchdog_terminations_total",
      "Runs the watchdog cut short, by cause", {{"cause", "storage"}});
  obs::Counter& watchdog_crash = obs::registry().counter(
      "patchwork_profiler_watchdog_terminations_total",
      "Runs the watchdog cut short, by cause", {{"cause", "crash"}});
  obs::Counter& scale_ups = obs::registry().counter(
      "patchwork_profiler_scale_events_total",
      "Dynamic-scaling footprint changes", {{"direction", "up"}});
  obs::Counter& scale_downs = obs::registry().counter(
      "patchwork_profiler_scale_events_total",
      "Dynamic-scaling footprint changes", {{"direction", "down"}});
};

ProfilerMetrics& profiler_metrics() {
  static ProfilerMetrics m;
  return m;
}

}  // namespace

std::string_view to_string(RunOutcome o) {
  switch (o) {
    case RunOutcome::kSuccess: return "success";
    case RunOutcome::kDegraded: return "degraded";
    case RunOutcome::kFailed: return "failed";
    case RunOutcome::kIncomplete: return "incomplete";
  }
  return "?";
}

SiteProfiler::SiteProfiler(Environment& env, testbed::SiteId site,
                           ProfilerConfig config, host::HostSpec host)
    : env_(env),
      site_(site),
      config_(std::move(config)),
      host_(host),
      allocator_(env.federation().site(site), env.rng(), config_.allocator),
      component_("profiler/" + env.federation().site(site).name()) {}

std::uint32_t SiteProfiler::monitored_port_slots() const {
  return static_cast<std::uint32_t>(slots_.size());
}

std::uint64_t SiteProfiler::storage_budget() const {
  if (!grant_) return 0;
  std::uint64_t total = 0;
  for (const testbed::GrantedVm& vm : grant_->vms) {
    total += vm.footprint.storage;
  }
  return total;
}

SetupResult SiteProfiler::setup() {
  SetupResult result;
  testbed::Site& site = env_.federation().site(site_);

  // Resource discovery via the testbed's API (Section 6.2.1).
  const std::size_t nics_available =
      site.count_available_nics(testbed::NicKind::kDedicatedConnectX);
  std::uint32_t want = config_.desired_instances > 0
                           ? config_.desired_instances
                           : static_cast<std::uint32_t>(nics_available);
  if (want == 0) {
    result.error = testbed::AllocError::kNoDedicatedNic;
    log_.error(env_.clock().now(), component_,
               "setup: no dedicated NICs available at site");
    setup_result_ = result;
    return result;
  }

  // Iterative back-off: shrink the request by one listening node (VM +
  // dedicated NIC) whenever the allocation simulation says it cannot fit.
  std::uint32_t backoffs = 0;
  while (true) {
    testbed::SliceRequest request;
    request.site = site_;
    request.vms.assign(want, testbed::VmRequest{});  // Patchwork defaults.

    if (auto err = allocator_.can_satisfy(request)) {
      if (want > 1 && backoffs < config_.max_backoffs) {
        ++backoffs;
        --want;
        profiler_metrics().backoffs.add();
        log_.warn(env_.clock().now(), component_,
                  "setup: back-off to " + std::to_string(want) +
                      " instance(s): " + std::string(to_string(*err)));
        continue;
      }
      result.error = err;
      result.backoffs_used = backoffs;
      log_.error(env_.clock().now(), component_,
                 "setup: allocation simulation failed: " +
                     std::string(to_string(*err)));
      setup_result_ = result;
      return result;
    }

    testbed::AllocResult alloc = allocator_.allocate(request);
    env_.advance(alloc.latency);  // Allocation takes real time.
    if (!alloc.ok()) {
      // Transient backend errors are not recoverable by shrinking.
      result.error = alloc.error;
      result.backoffs_used = backoffs;
      log_.error(env_.clock().now(), component_,
                 "setup: allocation failed: " +
                     std::string(to_string(*alloc.error)));
      setup_result_ = result;
      return result;
    }
    grant_ = std::move(alloc.grant);
    result.ok = true;
    result.instances_granted = want;
    result.backoffs_used = backoffs;
    result.allocation_latency = alloc.latency;
    break;
  }

  // Each dedicated NIC exposes two switch ports: two mirror destinations.
  add_slots_for_grant(*grant_, /*grant_tag=*/-1);
  log_.info(env_.clock().now(), component_,
            "setup: granted " + std::to_string(result.instances_granted) +
                " instance(s), " + std::to_string(slots_.size()) +
                " mirror destination port(s), backoffs=" +
                std::to_string(backoffs));
  setup_result_ = result;
  return result;
}

void SiteProfiler::add_slots_for_grant(const testbed::SliceGrant& grant,
                                       int grant_tag) {
  testbed::Site& site = env_.federation().site(site_);
  for (const testbed::GrantedVm& vm : grant.vms) {
    for (testbed::PortId dest : vm.nic_ports) {
      std::vector<testbed::PortId> fixed = config_.fixed_ports;
      if (config_.plan.policy == PortPolicy::kUplinksOnly) {
        fixed = site.tor().ports_of_kind(testbed::PortKind::kUplink);
      }
      slots_.push_back(MirrorSlot{
          dest, std::nullopt,
          PortSelector(config_.plan, env_.rng(), std::move(fixed)),
          grant_tag});
    }
  }
}

std::uint32_t SiteProfiler::current_instances() const {
  return setup_result_.instances_granted +
         static_cast<std::uint32_t>(extra_grants_.size());
}

TestbedPressure SiteProfiler::observe_pressure() const {
  TestbedPressure pressure;
  const testbed::Site& site = env_.federation().site(site_);
  // Dedicated-NIC contention from the inventory Patchwork can already
  // query. The signal is the fraction of NICs *outside this profiler's
  // own footprint* that other slices hold — when everything we left
  // behind is taken, other researchers are starved and a polite profiler
  // should shed.
  std::size_t ours_count = 0, total = 0, held_by_others = 0;
  for (const testbed::Nic& nic : site.nics()) {
    if (nic.kind != testbed::NicKind::kDedicatedConnectX) continue;
    ++total;
    if (!nic.allocated_to) continue;
    bool ours = grant_ && *nic.allocated_to == grant_->slice;
    for (const testbed::SliceGrant& g : extra_grants_) {
      ours = ours || *nic.allocated_to == g.slice;
    }
    if (ours) {
      ++ours_count;
    } else {
      ++held_by_others;
    }
  }
  const std::size_t contested = total > ours_count ? total - ours_count : 0;
  pressure.nic_contention =
      contested == 0 ? 1.0
                     : static_cast<double>(held_by_others) /
                           static_cast<double>(contested);
  // Activity from telemetry, normalized to the configured nominal load.
  const double total_bps =
      env_.mflib().testbed_total_tx_bps(config_.plan.rate_window);
  pressure.activity_level =
      config_.nominal_testbed_bps > 0
          ? total_bps / config_.nominal_testbed_bps
          : 1.0;
  return pressure;
}

void SiteProfiler::rescale() {
  const DynamicScaler scaler(config_.scaling);
  testbed::Site& site = env_.federation().site(site_);
  const TestbedPressure pressure = observe_pressure();
  const std::size_t nics_free =
      site.count_available_nics(testbed::NicKind::kDedicatedConnectX);
  const std::uint32_t current = current_instances();
  const std::uint32_t target =
      scaler.target_instances(current, pressure, nics_free);
  if (target > current) {
    // Grow by one listening node (1 VM + 1 dedicated dual-port NIC).
    testbed::SliceRequest request;
    request.site = site_;
    request.vms.push_back(testbed::VmRequest{});
    if (allocator_.can_satisfy(request)) return;  // Opportunity vanished.
    testbed::AllocResult alloc = allocator_.allocate(request);
    env_.advance(alloc.latency);
    if (!alloc.ok()) return;  // Transient failure; try again next cycle.
    extra_grants_.push_back(std::move(*alloc.grant));
    add_slots_for_grant(extra_grants_.back(),
                        static_cast<int>(extra_grants_.size()) - 1);
    ++scale_ups_;
    profiler_metrics().scale_ups.add();
    log_.info(env_.clock().now(), component_,
              "scale-up: now " + std::to_string(current_instances()) +
                  " instance(s) (pressure " +
                  std::to_string(pressure.combined()) + ")");
  } else if (target < current && !extra_grants_.empty()) {
    // Shed the most recent extra instance; the baseline never shrinks.
    const int tag = static_cast<int>(extra_grants_.size()) - 1;
    for (MirrorSlot& slot : slots_) {
      if (slot.grant_tag == tag && slot.source) {
        site.tor().remove_mirror(*slot.source);
      }
    }
    std::erase_if(slots_,
                  [tag](const MirrorSlot& s) { return s.grant_tag == tag; });
    allocator_.release(extra_grants_.back());
    extra_grants_.pop_back();
    ++scale_downs_;
    profiler_metrics().scale_downs.add();
    log_.info(env_.clock().now(), component_,
              "scale-down (nice): now " +
                  std::to_string(current_instances()) +
                  " instance(s) (pressure " +
                  std::to_string(pressure.combined()) + ")");
  }
}

std::vector<telemetry::PortRate> SiteProfiler::candidate_rates() const {
  const testbed::Site& site = env_.federation().site(site_);
  std::vector<telemetry::PortRate> rates =
      env_.mflib().site_rates_sorted(site_, config_.plan.rate_window);
  // Exclude mirror members and our own NIC-facing ports.
  std::vector<testbed::PortId> excluded;
  for (const MirrorSlot& slot : slots_) excluded.push_back(slot.destination);
  std::erase_if(rates, [&](const telemetry::PortRate& r) {
    if (site.tor().port_is_mirror_member(r.port.port)) return true;
    return std::find(excluded.begin(), excluded.end(), r.port.port) !=
           excluded.end();
  });
  return rates;
}

void SiteProfiler::cycle_ports() {
  testbed::Site& site = env_.federation().site(site_);
  for (MirrorSlot& slot : slots_) {
    const std::vector<telemetry::PortRate> rates = candidate_rates();
    const auto chosen = slot.selector.next(rates);
    if (!chosen) continue;
    if (slot.source) {
      if (*slot.source == *chosen) continue;
      // Port cycling keeps the NIC/VM fixed and changes only the mirror
      // source (Fig. 7).
      if (!site.tor().retarget_mirror(*slot.source, *chosen)) {
        log_.warn(env_.clock().now(), component_,
                  "cycle: retarget to p" + std::to_string(chosen->value) +
                      " failed");
        continue;
      }
      // A congestion-mitigated session returns to both channels on its
      // new port; mitigation re-triggers there if needed.
      site.tor().set_mirror_directions(*chosen,
                                       testbed::MirrorDirections::kBoth);
    } else {
      testbed::MirrorSession session{*chosen,
                                     testbed::MirrorDirections::kBoth,
                                     slot.destination};
      if (!site.tor().add_mirror(session)) {
        log_.warn(env_.clock().now(), component_,
                  "cycle: add_mirror on p" + std::to_string(chosen->value) +
                      " failed");
        continue;
      }
    }
    slot.source = chosen;
    profiler_metrics().port_cycles.add();
    log_.info(env_.clock().now(), component_,
              "cycle: mirroring p" + std::to_string(chosen->value) +
                  " -> p" + std::to_string(slot.destination.value));
  }
}

bool SiteProfiler::take_sample(MirrorSlot& slot, std::uint32_t cycle,
                               std::uint32_t run, std::uint32_t sample) {
  if (!slot.source) return false;
  testbed::Site& site = env_.federation().site(site_);
  auto session = site.tor().mirror_for_source(*slot.source);
  if (!session) return false;

  // Congestion inference from telemetry (not ground truth).
  CongestionDetector detector(env_.mflib(), config_.plan.rate_window);
  CongestionVerdict verdict = detector.assess(
      site_, *session,
      site.tor().port(slot.destination).line_rate_bps());
  if (verdict.likely_dropping) {
    profiler_metrics().congestion_detections.add();
    log_.warn(env_.clock().now(), component_,
              "congestion: mirror on p" +
                  std::to_string(slot.source->value) +
                  " likely dropping (offered " +
                  std::to_string(verdict.offered_bps / 1e9) + " Gbps)");
    if (config_.congestion_mitigation &&
        session->directions == testbed::MirrorDirections::kBoth) {
      // Mitigation: keep the Tx channel complete rather than sampling
      // both channels with switch-side losses.
      site.tor().set_mirror_directions(*slot.source,
                                       testbed::MirrorDirections::kTxOnly);
      session = site.tor().mirror_for_source(*slot.source);
      verdict = detector.assess(
          site_, *session,
          site.tor().port(slot.destination).line_rate_bps());
      profiler_metrics().congestion_mitigations.add();
      log_.info(env_.clock().now(), component_,
                "congestion: mitigated by dropping p" +
                    std::to_string(slot.source->value) +
                    " mirror to Tx-only");
    }
  }

  // Snapshot the data-plane inputs instead of rendering here. The mirrored
  // rate is read from the source port per the (post-mitigation) session
  // directions, so rendering later needs no access to the live switch state.
  PendingSample pending;
  pending.source = *slot.source;
  pending.cycle = cycle;
  pending.run = run;
  pending.sample = sample;
  pending.start = env_.clock().now();
  pending.target_bps = site.tor().mirror_offered_bps(*session);
  pending.delivery = site.tor().mirror_delivery_fraction(*session);
  pending.drop_fraction = verdict.estimated_drop_fraction;

  // Storage admission: the pcap is not serialized yet, so the watchdog
  // charges the format's upper bound for one sample.
  const std::uint64_t admitted_bytes =
      pcap::kGlobalHeaderSize +
      static_cast<std::uint64_t>(config_.plan.max_frames_per_sample) *
          (config_.capture.snaplen + pcap::kRecordHeaderSize);
  storage_admitted_ += admitted_bytes;
  profiler_metrics().storage_admissions.add();
  profiler_metrics().storage_admitted_bytes.add(admitted_bytes);

  std::ostringstream msg;
  msg << "sample c" << cycle << "/r" << run << "/s" << sample
      << " p" << slot.source->value << " scheduled: target="
      << pending.target_bps << "bps delivery=" << pending.delivery;
  log_.info(env_.clock().now(), component_, msg.str());
  pending_.push_back(pending);
  return true;
}

analysis::RawCapture SiteProfiler::render_sample(std::size_t k,
                                                 util::Rng& rng) const {
  // Per-sample wall latency (kWallClock) plus a deterministic render count.
  OBS_SPAN_ARGS("profiler/render_sample",
                .site = static_cast<std::int64_t>(site_.value),
                .sample = static_cast<std::int64_t>(k));
  const PendingSample& p = pending_.at(k);
  const testbed::Site& site = env_.federation().site(site_);
  const traffic::SiteWorkloadProfile& profile = env_.traffic().profile(site_);

  // The sample's stochastic phases hang off `rng` by substream id (see
  // flowgen.hpp): the plan is drawn sequentially, then every downstream
  // draw is counter-addressed, so the rendered bytes depend only on the
  // per-sample seed — never on batch scheduling or worker count.
  traffic::WindowParams params;
  params.duration = config_.plan.sample_duration;
  params.target_bps = p.target_bps;
  params.max_frames = config_.plan.max_frames_per_sample;
  util::Rng plan_rng = rng.split(traffic::kWindowPlanStream);
  traffic::WindowPlan plan;
  {
    // The plan is the render's only sequential phase; its wall share vs
    // the counter-addressed synthesis below is what the flow-churn
    // ablation bench breaks out.
    OBS_SPAN_ARGS("render/plan",
                  .site = static_cast<std::int64_t>(site_.value),
                  .sample = static_cast<std::int64_t>(k));
    plan = config_.flow_model.model == flowsched::FlowModel::kEvent
               ? flowsched::plan_event_window(plan_rng, profile, params,
                                              config_.flow_model)
               : traffic::plan_window(plan_rng, profile, params);
  }
  const RenderedWindow window = render_window(
      plan, rng, params.duration, p.delivery,
      {.site = static_cast<std::int64_t>(site_.value),
       .sample = static_cast<std::int64_t>(k)});

  // Capture through the configured method, on its own substream.
  util::Rng capture_rng = rng.split(traffic::kWindowCaptureStream);
  capture::CaptureSession capturer(config_.capture, host_, capture_rng);
  capture::CaptureResult captured = [&] {
    OBS_SPAN_ARGS("render/capture",
                  .site = static_cast<std::int64_t>(site_.value),
                  .sample = static_cast<std::int64_t>(k));
    return capturer.run(window.frames, window.offered_pps);
  }();

  analysis::RawCapture raw;
  raw.site = site.name();
  raw.port = p.source.value;
  raw.start = p.start;
  raw.duration = config_.plan.sample_duration;
  raw.switch_drops_suspected = static_cast<std::uint64_t>(
      p.drop_fraction * window.offered_pps * util::to_seconds(raw.duration));
  raw.pcap = std::move(captured.pcap);

  std::ostringstream msg;
  msg << "sample c" << p.cycle << "/r" << p.run << "/s" << p.sample
      << " p" << p.source.value << ": offered=" << captured.stats.offered
      << " captured=" << captured.stats.captured
      << " capacity_loss=" << captured.stats.dropped_capacity
      << " flows~" << plan.flow_count;
  raw.logs.info(p.start, component_, msg.str());
  return raw;
}

void SiteProfiler::commit_rendered(
    std::vector<analysis::RawCapture> rendered) {
  assert(rendered.size() == pending_.size());
  captures_.reserve(captures_.size() + rendered.size());
  for (analysis::RawCapture& raw : rendered) {
    // Replay the sample's render summary into the instance log, exactly as
    // the serial path used to write it — sample order keeps the site log
    // deterministic no matter which workers rendered which samples.
    log_.merge(raw.logs);
    captures_.push_back(std::move(raw));
  }
  pending_.clear();
}

RunOutcome SiteProfiler::run() {
  if (!setup_result_.ok) return RunOutcome::kFailed;
  const SamplingPlan& plan = config_.plan;
  for (std::uint32_t cycle = 0; cycle < plan.cycles; ++cycle) {
    // Re-evaluate the footprint between cycles (but not before the very
    // first one: setup just sized the baseline).
    if (config_.dynamic_scaling && lifetime_cycles_ > 0) rescale();
    ++lifetime_cycles_;
    cycle_ports();
    for (std::uint32_t run = 0; run < plan.runs_per_cycle; ++run) {
      // Watchdog: the paper's "Incomplete" runs — e.g. an instance that
      // ran out of storage, or the since-fixed crash bug.
      if (env_.rng().chance(config_.crash_probability)) {
        crashed_ = true;
        profiler_metrics().watchdog_crash.add();
        log_.error(env_.clock().now(), component_,
                   "watchdog: instance terminated unexpectedly");
        return RunOutcome::kIncomplete;
      }
      if (storage_budget() > 0 && storage_admitted_ > storage_budget()) {
        crashed_ = true;
        profiler_metrics().watchdog_storage.add();
        log_.error(env_.clock().now(), component_,
                   "watchdog: storage budget exhausted (" +
                       std::to_string(storage_admitted_) +
                       " bytes admitted)");
        return RunOutcome::kIncomplete;
      }
      for (std::uint32_t s = 0; s < plan.samples_per_run; ++s) {
        for (MirrorSlot& slot : slots_) take_sample(slot, cycle, run, s);
        env_.advance(plan.sample_interval);
      }
    }
  }
  return setup_result_.backoffs_used > 0 ? RunOutcome::kDegraded
                                         : RunOutcome::kSuccess;
}

std::vector<analysis::RawCapture> SiteProfiler::gather() {
  assert(pending_.empty() && "commit_rendered() before gather()");
  // Instance logs travel with the captures (Section 6.2.2); attach the
  // profiler's own log to the first capture of the bundle.
  if (!captures_.empty()) captures_.front().logs.merge(log_);
  return std::move(captures_);
}

void SiteProfiler::teardown() {
  testbed::Site& site = env_.federation().site(site_);
  for (MirrorSlot& slot : slots_) {
    if (slot.source) site.tor().remove_mirror(*slot.source);
    slot.source.reset();
  }
  for (const testbed::SliceGrant& g : extra_grants_) {
    allocator_.release(g);
  }
  extra_grants_.clear();
  if (grant_) {
    allocator_.release(*grant_);
    grant_.reset();
  }
  slots_.clear();
  log_.info(env_.clock().now(), component_, "teardown: resources yielded");
}

}  // namespace patchwork::core
