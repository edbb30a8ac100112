// Abstract captures ("acap").
//
// Section 6.2.4: the Digest step applies protocol dissectors to raw pcaps
// and produces, for each frame prefix, "an abstract stack of headers
// ('acap')", discarding unneeded bytes but retaining timing and frame-size
// metadata. Downstream analyses never touch raw bytes again — they consume
// these records, one at a time, as Digest produces them.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "net/parser.hpp"
#include "net/protocol.hpp"
#include "util/small_vec.hpp"
#include "util/units.hpp"

namespace patchwork::analysis {

/// Flow identity under the paper's classification rule: virtualization
/// tags (VLAN, MPLS) *plus* network- and transport-layer fields, "thus
/// even if the same 10/8 addresses are used in different slices, they are
/// treated as different flows". Endpoints are stored canonically (lower
/// endpoint first) so a flow's two directions share one key.
struct FlowKey {
  net::VlanIds vlan_ids;
  net::MplsLabels mpls_labels;
  std::uint8_t ip_version = 0;  ///< 0 = non-IP.
  std::array<std::uint8_t, 16> addr_a{};
  std::array<std::uint8_t, 16> addr_b{};
  std::uint8_t l4_proto = 0;
  std::uint16_t port_a = 0;
  std::uint16_t port_b = 0;

  bool operator==(const FlowKey&) const = default;
  /// Lexicographic ordering so keys can live in ordered containers.
  bool operator<(const FlowKey& other) const;

  std::string to_string() const;
};

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const;
};

/// A record's header stack, held inline up to the dissector's inline layer
/// count.
using ProtocolStack = util::SmallVec<net::Protocol, net::kInlineLayers>;

/// Hashes a header stack by its protocol bytes.
struct ProtocolStackHash {
  std::size_t operator()(const ProtocolStack& stack) const;
};

/// One dissected frame, abstracted.
struct AcapRecord {
  ProtocolStack stack;  ///< Outermost first.
  std::uint32_t wire_length = 0;
  std::uint32_t captured_length = 0;
  util::Nanos timestamp = 0;
  FlowKey flow;
  std::uint8_t tcp_flags = 0;  ///< 0 when not TCP.

  std::size_t header_depth() const;
  bool has(net::Protocol p) const;
};

/// Derive a FlowKey (canonical direction) from a dissected frame.
FlowKey flow_key_of(const net::ParsedFrame& frame);

/// Abstract one dissected frame into an AcapRecord.
AcapRecord abstract_frame(const net::ParsedFrame& frame);

}  // namespace patchwork::analysis
