// Testbed abstraction layer.
//
// Section 9 (future work): "Porting Patchwork to run on other testbeds
// would involve designing an abstraction layer to interface with APIs from
// different testbeds, in order to acquire and manage testbed resources for
// Patchwork." TestbedBackend is that layer: the minimal set of operations
// Patchwork's workflow needs — capture-node leasing, port mirroring,
// windowed port-rate telemetry, and data-plane sampling — with the
// testbed's identity hidden behind the interface. Sampling returns what
// the paper's sampling phase produces on FABRIC (Section 6.2.2): a
// captured pcap of one mirrored window.
//
// Two concrete backends ship here, both running on the simulation
// substrate but exposing different testbeds: a FABRIC-like federation site
// (FPGA offload, deep MPLS/pseudowire underlay, 100G ports) and an
// Emulab-like site (no programmable NICs, VLAN-only tagging, 25G ports).
// The contract test suite (tests/core/testbed_backend_test.cpp) runs the
// same expectations over both.
#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "analysis/digest.hpp"
#include "core/environment.hpp"
#include "telemetry/mflib.hpp"
#include "testbed/allocator.hpp"
#include "testbed/ids.hpp"
#include "util/units.hpp"

namespace patchwork::core {

class TestbedBackend {
 public:
  virtual ~TestbedBackend() = default;

  virtual std::string name() const = 0;

  // --- Resource discovery & leasing ---------------------------------------
  /// NICs still available for capture nodes.
  virtual std::size_t available_capture_nics() const = 0;
  /// Whether the testbed offers on-NIC offload (FABRIC: Alveo FPGAs).
  virtual bool supports_offload() const = 0;

  /// A leased capture node: a VM plus the switch ports its capture NIC
  /// exposes (the mirror destinations).
  struct CaptureLease {
    std::uint64_t id = 0;
    std::vector<testbed::PortId> destinations;
  };
  virtual std::variant<CaptureLease, testbed::AllocError>
  acquire_capture_node() = 0;
  virtual void release(const CaptureLease& lease) = 0;

  // --- Port mirroring -------------------------------------------------------
  virtual bool mirror(testbed::PortId source, testbed::PortId destination) = 0;
  virtual bool retarget(testbed::PortId old_source,
                        testbed::PortId new_source) = 0;
  virtual bool unmirror(testbed::PortId source) = 0;

  // --- Telemetry --------------------------------------------------------------
  /// Per-port rates over the trailing window, busiest first. Ports already
  /// in mirror sessions are included (callers filter).
  virtual std::vector<telemetry::PortRate> port_rates(
      util::Nanos window) const = 0;

  // --- Data plane & time -----------------------------------------------------
  /// Capture one window of `duration` starting now from the mirror of
  /// `source`, rendering at most about `max_frames` frames: the pcap the
  /// capture node stores, the same type SiteProfiler::render_sample
  /// returns. Advances time by `duration`.
  virtual analysis::RawCapture sample(testbed::PortId source,
                                      util::Nanos duration,
                                      std::size_t max_frames) = 0;
  virtual void advance(util::Nanos dt) = 0;
  virtual util::Nanos now() const = 0;
};

/// A self-contained simulated testbed (substrate + telemetry + traffic)
/// exposed through the backend interface. Owns its world.
class SimBackendWorld;

struct SimBackendOptions {
  std::string name = "fabric-sim";
  std::uint64_t seed = 1;
  testbed::FederationSpec federation;  ///< Shape of the simulated testbed.
  bool offload = true;                 ///< Advertise on-NIC offload.
  bool vlan_only_underlay = false;     ///< Emulab-style tagging (no MPLS).
};

std::unique_ptr<TestbedBackend> make_sim_backend(SimBackendOptions options);

/// FABRIC flavour: 100G ports, FPGA offload, MPLS/pseudowire underlay.
std::unique_ptr<TestbedBackend> make_fabric_like_backend(
    std::uint64_t seed = 1);

/// Emulab flavour: 25G ports, fewer capture NICs, VLAN-only tagging, no
/// offload — the "far fewer network resources" the paper notes other
/// testbeds have (Section 7).
std::unique_ptr<TestbedBackend> make_emulab_like_backend(
    std::uint64_t seed = 1);

}  // namespace patchwork::core
