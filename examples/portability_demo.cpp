// Portability demo — the Section 9 future-work abstraction layer in use.
//
// The same capture workflow (discover -> lease a capture node -> mirror the
// busiest port -> capture samples -> analyze -> release) runs unchanged
// against two different testbeds behind the TestbedBackend interface: a
// FABRIC-like federation site and an Emulab-like cluster. The printed profiles expose
// each testbed's character: FABRIC shows FPGA offload and a deep
// MPLS/pseudowire underlay; Emulab shows VLAN-only isolation and fewer
// capture NICs.
//
// Build & run:  ./build/examples/portability_demo
#include <algorithm>
#include <iostream>

#include "analysis/analyses.hpp"
#include "analysis/digest.hpp"
#include "core/testbed_backend.hpp"
#include "util/table.hpp"

using namespace patchwork;

namespace {

void profile_with(core::TestbedBackend& backend) {
  std::cout << "=== Testbed: " << backend.name() << " ===\n"
            << "capture NICs available: "
            << backend.available_capture_nics()
            << ", on-NIC offload: "
            << (backend.supports_offload() ? "yes (FPGA)" : "no") << "\n";

  // Lease one capture node.
  auto result = backend.acquire_capture_node();
  if (std::holds_alternative<testbed::AllocError>(result)) {
    std::cout << "allocation failed: "
              << testbed::to_string(std::get<testbed::AllocError>(result))
              << "\n";
    return;
  }
  const auto lease = std::get<core::TestbedBackend::CaptureLease>(result);

  // Mirror the busiest port that is not one of our own NIC ports.
  const auto rates = backend.port_rates(15 * util::kMinute);
  testbed::PortId source = rates.front().port.port;
  for (const auto& r : rates) {
    if (std::find(lease.destinations.begin(), lease.destinations.end(),
                  r.port.port) == lease.destinations.end()) {
      source = r.port.port;
      break;
    }
  }
  backend.mirror(source, lease.destinations.front());

  // Three captured 20-second samples, then analysis.
  std::vector<analysis::RawCapture> captures;
  for (int s = 0; s < 3; ++s) {
    captures.push_back(backend.sample(source, 20 * util::kSecond, 2500));
    backend.advance(5 * util::kMinute);
  }
  backend.unmirror(source);
  backend.release(lease);

  const auto analyzed = analysis::analyze(captures);
  const auto& occurrence = analyzed.header_occurrence;
  const std::size_t top = std::min<std::size_t>(3, analyzed.stacks.size());

  util::TextTable table({"Header", "% of frames"});
  for (net::Protocol p :
       {net::Protocol::kVlan, net::Protocol::kMpls, net::Protocol::kPseudoWire,
        net::Protocol::kIpv4, net::Protocol::kTcp}) {
    table.add_row({std::string(net::to_string(p)),
                   util::fmt_double(occurrence.percent(p), 1)});
  }
  table.print(std::cout);
  std::cout << "Top stacks:\n";
  for (std::size_t i = 0; i < top; ++i) {
    const analysis::StackCount& s = analyzed.stacks[i];
    std::cout << "  " << s.stack << "  ("
              << util::fmt_percent(s.fraction, 1) << ")\n";
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  auto fabric = core::make_fabric_like_backend(11);
  auto emulab = core::make_emulab_like_backend(11);
  profile_with(*fabric);
  profile_with(*emulab);
  std::cout << "Same workflow, two testbeds: the MPLS/pseudowire underlay "
               "is a FABRIC trait;\nthe Emulab-style site isolates with "
               "VLANs only and offers no NIC offload.\n";
  return 0;
}
