// Frame dissection.
//
// This is the repository's counterpart of the Wireshark protocol dissectors
// the paper's Digest step runs over raw pcaps (Section 6.2.4): it walks a
// frame's bytes and produces the ordered list of headers ("layers"),
// tolerating snaplen truncation, plus the extracted fields the flow
// classifier needs (virtualization tags and network-/transport-layer
// fields).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/headers.hpp"
#include "net/protocol.hpp"
#include "util/small_vec.hpp"
#include "util/units.hpp"

namespace patchwork::net {

/// One dissected layer: which protocol, where it sits in the frame, and how
/// many bytes of it were present in the capture.
struct LayerInfo {
  Protocol protocol = Protocol::kPayload;
  std::size_t offset = 0;
  std::size_t length = 0;
};

// Inline capacities of a dissection's lists, sized from profile traffic:
// in testbed_epoch profiles (seeds 1 and 3) no frame has more than 13
// layers, 1 VLAN tag or 2 MPLS labels. Deeper frames spill to the heap
// and stay exact.
inline constexpr std::size_t kInlineLayers = 16;
inline constexpr std::size_t kInlineVlanTags = 4;
inline constexpr std::size_t kInlineMplsLabels = 4;

using VlanIds = util::SmallVec<std::uint16_t, kInlineVlanTags>;
using MplsLabels = util::SmallVec<std::uint32_t, kInlineMplsLabels>;

/// The result of dissecting one frame.
struct ParsedFrame {
  util::SmallVec<LayerInfo, kInlineLayers> layers;

  // Virtualization tags, outermost first. The paper's flow classifier keys
  // on these so identical 10/8 addresses in different slices stay distinct.
  VlanIds vlan_ids;
  MplsLabels mpls_labels;
  std::optional<std::uint32_t> vxlan_vni;

  // Innermost network layer.
  std::optional<Ipv4Header> ipv4;
  std::optional<Ipv6Header> ipv6;

  // Innermost transport layer.
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;

  std::size_t wire_length = 0;
  std::size_t captured_length = 0;
  util::Nanos timestamp = 0;

  /// Count of real protocol headers (excludes payload/truncated/malformed
  /// pseudo-layers) — the "header stack depth" of Fig. 11.
  std::size_t header_depth() const;

  bool has(Protocol p) const;
  std::size_t count(Protocol p) const;

  /// Render as "eth/vlan/mpls/mpls/pw/eth/ipv4/tcp/tls".
  std::string stack_string() const;
};

/// Dissect a frame's captured bytes, starting from an Ethernet header.
/// `wire_length` is its original on-the-wire size (larger than
/// bytes.size() when a snaplen cut the capture).
ParsedFrame parse_bytes(ByteView bytes, std::size_t wire_length,
                        util::Nanos timestamp);

}  // namespace patchwork::net
