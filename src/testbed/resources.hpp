// Reservable resources within a site: worker nodes, NICs, VMs.
//
// Mirrors FABRIC's sliver types (Section 3): VMs, shared ConnectX NICs,
// single-user ("dedicated") ConnectX NICs, and Alveo FPGA NICs. Dedicated
// NICs are dual-port and scarce — "each site usually has only around 2-6
// available" (Section 6.2.1) — which is what drives Patchwork's iterative
// back-off.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "testbed/ids.hpp"

namespace patchwork::testbed {

enum class NicKind : std::uint8_t {
  kSharedConnectX,     ///< Port shared among many users' VMs.
  kDedicatedConnectX,  ///< Dual-port, single user at a time.
  kAlveoFpga,          ///< Programmable FPGA NIC (P4 offload target).
};

std::string_view to_string(NicKind kind);

struct Nic {
  NicId id;
  NicKind kind = NicKind::kSharedConnectX;
  WorkerId worker;
  /// Switch ports this NIC's physical ports connect to (downlinks).
  std::vector<PortId> switch_ports;
  /// Slice currently holding the NIC (dedicated/FPGA NICs only).
  std::optional<SliceId> allocated_to;

  std::size_t port_count() const { return switch_ports.size(); }
  bool available() const { return !allocated_to.has_value(); }
};

struct WorkerNode {
  WorkerId id;
  std::uint32_t cores_total = 0;
  std::uint32_t cores_free = 0;
  std::uint64_t ram_total = 0;  ///< Bytes.
  std::uint64_t ram_free = 0;
  std::uint64_t storage_total = 0;  ///< Bytes.
  std::uint64_t storage_free = 0;
  std::vector<NicId> nics;
};

struct Vm {
  VmId id;
  WorkerId worker;
  SliceId slice;
  std::uint32_t cores = 0;
  std::uint64_t ram = 0;
  std::uint64_t storage = 0;
  std::vector<NicId> nics;
};

}  // namespace patchwork::testbed
