// Fluent construction of wire-format frames.
//
// The builder records a stack of layers and resolves all inter-layer
// plumbing when it serializes: EtherType chaining, MPLS bottom-of-stack bits,
// IP protocol numbers, and the length fields that depend on everything
// stacked above. This is what lets the traffic generator express the
// paper's FABRIC encapsulations naturally:
//
//   FrameBuilder()
//       .ethernet(src, dst).vlan(100).mpls(16001).mpls(16002)
//       .pseudowire().ethernet(vm_src, vm_dst)
//       .ipv4(a, b).tcp(49152, 443, tcp_flags::kAck).tls()
//       .pad_to(1514)
//       .build_into(store, t);
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "net/frame_store.hpp"
#include "net/headers.hpp"

namespace patchwork::net {

/// Which per-frame field FrameBuilder::build_many_into() patches into each
/// copy of its serialized template. The patched fields are exactly the
/// ones the traffic renderer varies inside a render unit; everything else
/// in a unit's frames is byte-identical, which is what makes the
/// template-stamp fast path legal.
enum class PerFrameField : std::uint8_t {
  kNone,            ///< Frames differ only by timestamp.
  kTcpSeqAndDnsId,  ///< values[i] -> every TCP seq (BE32) + DNS id (BE16).
  kTcpAck,          ///< values[i] -> every TCP ack number (BE32).
};

class FrameBuilder {
 public:
  FrameBuilder() = default;

  FrameBuilder& ethernet(MacAddress src, MacAddress dst);
  FrameBuilder& vlan(std::uint16_t vid, std::uint8_t pcp = 0);
  FrameBuilder& mpls(std::uint32_t label, std::uint8_t ttl = 64);
  FrameBuilder& pseudowire(std::uint16_t sequence = 0);
  FrameBuilder& arp(MacAddress sender_mac, Ipv4Address sender_ip,
                    Ipv4Address target_ip, bool reply = false);
  FrameBuilder& ipv4(Ipv4Address src, Ipv4Address dst, std::uint8_t ttl = 64);
  FrameBuilder& ipv6(Ipv6Address src, Ipv6Address dst,
                     std::uint8_t hop_limit = 64);
  FrameBuilder& tcp(std::uint16_t src_port, std::uint16_t dst_port,
                    std::uint8_t flags = tcp_flags::kAck,
                    std::uint32_t seq = 0, std::uint32_t ack = 0);
  FrameBuilder& udp(std::uint16_t src_port, std::uint16_t dst_port);
  FrameBuilder& icmp(std::uint8_t type = 8, std::uint8_t code = 0);
  FrameBuilder& dns(std::uint16_t id, bool response = false);
  FrameBuilder& tls(std::uint8_t content_type = 23);
  FrameBuilder& ntp();
  FrameBuilder& vxlan(std::uint32_t vni);
  /// GRE tunnel header; the payload EtherType chains from the next layer
  /// (inner Ethernet uses transparent Ethernet bridging).
  FrameBuilder& gre();
  FrameBuilder& ssh_banner();
  FrameBuilder& http_request();

  /// Raw application payload of `size` bytes (pattern-filled).
  FrameBuilder& payload(std::size_t size);

  /// Pad the finished frame with payload bytes so its wire length is
  /// exactly `frame_size` (64..9216). No-op if already at least that long.
  FrameBuilder& pad_to(std::size_t frame_size);

  /// Resolve chaining/lengths and append the frame to `store`'s arena.
  /// The builder can be reused afterwards for another identical stack.
  void build_into(FrameStore& store, util::Nanos timestamp = 0) const;

  /// Batched build_into(): emit one frame per timestamps[i], all from the
  /// current stack, patching values[i] into the field(s) selected by
  /// `field`. The stack is serialized once, as frame 0, straight into the
  /// store's arena; every later frame is a copy of frame 0 with its own
  /// values stamped over the patched fields. The stack must describe
  /// those fields with value 0, so the output is byte-identical to calling
  /// build_into() per frame with values[i] threaded through the stack.
  /// Appends behind any frames already in `store`; an empty `timestamps`
  /// appends nothing. Requires values.size() == timestamps.size() unless
  /// field == kNone.
  void build_many_into(FrameStore& store,
                       std::span<const util::Nanos> timestamps,
                       std::span<const std::uint32_t> values,
                       PerFrameField field) const;

  /// Clear the stack so the builder can describe the next frame while
  /// keeping its buffers' capacity.
  void reset();

  std::size_t layer_count() const { return layers_.size(); }

 private:
  struct Payload {
    std::size_t size = 0;
  };
  using Layer =
      std::variant<EthernetHeader, VlanTag, MplsLabel, PseudoWireControlWord,
                   ArpHeader, Ipv4Header, Ipv6Header, TcpHeader, UdpHeader,
                   IcmpHeader, DnsHeader, TlsRecordHeader, NtpHeader,
                   VxlanHeader, GreHeader, Payload>;
  enum class Marker : std::uint8_t { kNone, kSsh, kHttp };

  std::vector<Layer> layers_;
  std::vector<Marker> markers_;  // Parallel to layers_, for SSH/HTTP text.
  std::size_t pad_to_ = 0;
  /// Working copy resolved by each build; a member so repeated builds
  /// reuse its capacity instead of allocating per frame.
  mutable std::vector<Layer> scratch_;

  void push(Layer layer, Marker marker = Marker::kNone);
  /// Pad, resolve chaining/length fields in `layers`, and append the
  /// serialization to `out`, reserving room for `frames` copies of it.
  void resolve_and_serialize(std::vector<Layer>& layers, Bytes& out,
                             std::size_t frames) const;
};

}  // namespace patchwork::net
