#include "core/testbed_backend.hpp"

#include <map>

#include "capture/session.hpp"
#include "core/window_render.hpp"
#include "sim/clock.hpp"
#include "testbed/activity_model.hpp"
#include "testbed/federation.hpp"
#include "traffic/engine.hpp"
#include "traffic/workload.hpp"

namespace patchwork::core {

namespace {

class SimBackend final : public TestbedBackend {
 public:
  explicit SimBackend(SimBackendOptions options)
      : options_(std::move(options)),
        rng_(options_.seed),
        fed_(testbed::make_fabric_like_federation(rng_, options_.federation)),
        mflib_(fed_),
        traffic_(fed_, activity_, make_profiles(), rng_.fork()),
        env_(clock_, fed_, mflib_, traffic_, rng_),
        allocator_(fed_.site(kSite), rng_, no_failures()) {
    env_.advance(11 * util::kMinute);  // Telemetry warm-up.
  }

  std::string name() const override { return options_.name; }

  std::size_t available_capture_nics() const override {
    return fed_.site(kSite).count_available_nics(
        testbed::NicKind::kDedicatedConnectX);
  }

  bool supports_offload() const override {
    return options_.offload && fed_.site(kSite).has_fpga();
  }

  std::variant<CaptureLease, testbed::AllocError> acquire_capture_node()
      override {
    testbed::SliceRequest request;
    request.site = kSite;
    request.vms.push_back(testbed::VmRequest{});
    testbed::AllocResult result = allocator_.allocate(request);
    env_.advance(result.latency);
    if (!result.ok()) return *result.error;
    CaptureLease lease;
    lease.id = next_lease_++;
    for (const testbed::GrantedVm& vm : result.grant->vms) {
      for (testbed::PortId p : vm.nic_ports) lease.destinations.push_back(p);
    }
    grants_[lease.id] = std::move(*result.grant);
    return lease;
  }

  void release(const CaptureLease& lease) override {
    const auto it = grants_.find(lease.id);
    if (it == grants_.end()) return;
    allocator_.release(it->second);
    grants_.erase(it);
  }

  bool mirror(testbed::PortId source, testbed::PortId destination) override {
    return fed_.site(kSite).tor().add_mirror(
        {source, testbed::MirrorDirections::kBoth, destination});
  }

  bool retarget(testbed::PortId old_source,
                testbed::PortId new_source) override {
    return fed_.site(kSite).tor().retarget_mirror(old_source, new_source);
  }

  bool unmirror(testbed::PortId source) override {
    return fed_.site(kSite).tor().remove_mirror(source);
  }

  std::vector<telemetry::PortRate> port_rates(
      util::Nanos window) const override {
    return mflib_.site_rates_sorted(kSite, window);
  }

  analysis::RawCapture sample(testbed::PortId source, util::Nanos duration,
                              std::size_t max_frames) override {
    // The profiler's sampling path on a window forked off the backend's
    // stream: plan, render_window, then a default capture session. An
    // unmirrored port is sampled as a both-direction mirror at full
    // delivery.
    const testbed::ToRSwitch& tor = fed_.site(kSite).tor();
    const auto session = tor.mirror_for_source(source);
    traffic::WindowParams params;
    params.duration = duration;
    params.max_frames = max_frames;
    params.target_bps = tor.mirror_offered_bps(session.value_or(
        testbed::MirrorSession{source, testbed::MirrorDirections::kBoth,
                               source}));
    const double delivery =
        session ? tor.mirror_delivery_fraction(*session) : 1.0;

    const util::Rng window = rng_.fork();
    util::Rng plan_rng = window.split(traffic::kWindowPlanStream);
    const traffic::WindowPlan plan =
        traffic::plan_window(plan_rng, traffic_.profile(kSite), params);
    const RenderedWindow rendered =
        render_window(plan, window, duration, delivery, {});
    util::Rng capture_rng = window.split(traffic::kWindowCaptureStream);
    capture::CaptureSession capturer(capture::CaptureConfig{},
                                     host::HostSpec{}, capture_rng);

    analysis::RawCapture raw;
    raw.site = options_.name;
    raw.port = source.value;
    raw.start = clock_.now();
    raw.duration = duration;
    raw.pcap = capturer.run(rendered.frames, rendered.offered_pps).pcap;
    env_.advance(duration);
    return raw;
  }

  void advance(util::Nanos dt) override { env_.advance(dt); }
  util::Nanos now() const override { return clock_.now(); }

 private:
  static constexpr testbed::SiteId kSite{0};

  static testbed::Allocator::Tuning no_failures() {
    testbed::Allocator::Tuning t;
    t.backend_failure_rate = 0.0;
    return t;
  }

  std::vector<traffic::SiteWorkloadProfile> make_profiles() {
    auto profiles = traffic::make_site_profiles(rng_, fed_.site_count());
    if (options_.vlan_only_underlay) {
      for (auto& p : profiles) {
        // Emulab-style isolation: VLANs, no MPLS/pseudowire underlay.
        p.encapsulation.mpls_probability = 0.0;
        p.encapsulation.pseudowire_probability = 0.0;
      }
    }
    return profiles;
  }

  SimBackendOptions options_;
  util::Rng rng_;
  sim::Clock clock_;
  testbed::ActivityModel activity_;
  testbed::Federation fed_;
  telemetry::MfLib mflib_;
  traffic::TrafficEngine traffic_;
  Environment env_;
  testbed::Allocator allocator_;
  std::map<std::uint64_t, testbed::SliceGrant> grants_;
  std::uint64_t next_lease_ = 1;
};

}  // namespace

std::unique_ptr<TestbedBackend> make_sim_backend(SimBackendOptions options) {
  return std::make_unique<SimBackend>(std::move(options));
}

std::unique_ptr<TestbedBackend> make_fabric_like_backend(std::uint64_t seed) {
  SimBackendOptions options;
  options.name = "fabric-sim";
  options.seed = seed;
  options.offload = true;
  options.federation.fpga_site_fraction = 1.0;  // Site 0 gets an FPGA.
  return make_sim_backend(std::move(options));
}

std::unique_ptr<TestbedBackend> make_emulab_like_backend(std::uint64_t seed) {
  SimBackendOptions options;
  options.name = "emulab-sim";
  options.seed = seed;
  options.offload = false;
  options.vlan_only_underlay = true;
  options.federation.sites = 4;            // A single-cluster testbed.
  options.federation.port_rate_bps = 25e9;  // Far fewer network resources.
  options.federation.min_dedicated_nics = 1;
  options.federation.max_dedicated_nics = 2;
  options.federation.fpga_site_fraction = 0.0;
  // Up to 8 workers each take a downlink for their shared NIC first, so 10
  // leaves room for at least one dual-port capture NIC.
  options.federation.min_downlinks = 10;
  options.federation.max_downlinks = 16;
  return make_sim_backend(std::move(options));
}

}  // namespace patchwork::core
