// The operator's-eye view, for contrast with Patchwork.
//
// Section 4 ("Asymmetry in general profiling"): NetFlow/sFlow/IPFIX-style
// switch summaries "do not distinguish between testbed users and provide
// coarse statistics" — a classic exporter keys flows on the bare 5-tuple,
// so two slices reusing the same 10/8 addresses collapse into one flow,
// and per-experiment attribution is impossible. This module keys the same
// digested captures both ways so the asymmetry can be measured (see
// bench/bench_sec4_operator_asymmetry).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "analysis/acap.hpp"
#include "analysis/digest.hpp"

namespace patchwork::analysis {

/// A classic NetFlow-style key: network + transport fields only — no
/// VLAN/MPLS virtualization tags.
struct FiveTupleKey {
  std::uint8_t ip_version = 0;
  std::array<std::uint8_t, 16> addr_a{};
  std::array<std::uint8_t, 16> addr_b{};
  std::uint8_t l4_proto = 0;
  std::uint16_t port_a = 0;
  std::uint16_t port_b = 0;

  auto operator<=>(const FiveTupleKey&) const = default;

  static FiveTupleKey from_flow_key(const FlowKey& key);
};

/// How much the operator view loses relative to Patchwork's tag-aware
/// classification.
struct AsymmetryReport {
  std::uint64_t patchwork_flows = 0;  ///< Tag-aware distinct flows.
  std::uint64_t operator_flows = 0;   ///< 5-tuple distinct flows.
  /// 5-tuple keys that merge >1 tag-distinct flow (different slices whose
  /// addresses collide — invisible to the operator).
  std::uint64_t collapsed_keys = 0;
  /// Tag-distinct flows hidden inside collapsed keys.
  std::uint64_t hidden_flows = 0;

  double undercount_fraction() const {
    return patchwork_flows == 0
               ? 0.0
               : 1.0 - static_cast<double>(operator_flows) /
                           static_cast<double>(patchwork_flows);
  }
};

/// Digest the captures and count the flows each view sees.
AsymmetryReport measure_asymmetry(const std::vector<RawCapture>& captures);

}  // namespace patchwork::analysis
