#include "net/frame_builder.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

namespace patchwork::net {

namespace {

constexpr std::size_t kSshBannerSize = 21;   // "SSH-2.0-OpenSSH_9.6\r\n"
constexpr std::size_t kHttpRequestSize = 16; // "GET / HTTP/1.1\r\n"

struct SizeVisitor {
  std::size_t operator()(const EthernetHeader&) const {
    return EthernetHeader::kSize;
  }
  std::size_t operator()(const VlanTag&) const { return VlanTag::kSize; }
  std::size_t operator()(const MplsLabel&) const { return MplsLabel::kSize; }
  std::size_t operator()(const PseudoWireControlWord&) const {
    return PseudoWireControlWord::kSize;
  }
  std::size_t operator()(const ArpHeader&) const { return ArpHeader::kSize; }
  std::size_t operator()(const Ipv4Header&) const { return Ipv4Header::kSize; }
  std::size_t operator()(const Ipv6Header&) const { return Ipv6Header::kSize; }
  std::size_t operator()(const TcpHeader&) const { return TcpHeader::kSize; }
  std::size_t operator()(const UdpHeader&) const { return UdpHeader::kSize; }
  std::size_t operator()(const IcmpHeader&) const { return IcmpHeader::kSize; }
  std::size_t operator()(const DnsHeader&) const { return DnsHeader::kSize; }
  std::size_t operator()(const TlsRecordHeader&) const {
    return TlsRecordHeader::kSize;
  }
  std::size_t operator()(const NtpHeader&) const { return NtpHeader::kSize; }
  std::size_t operator()(const VxlanHeader&) const {
    return VxlanHeader::kSize;
  }
  std::size_t operator()(const GreHeader&) const { return GreHeader::kSize; }
  template <typename P>
  std::size_t operator()(const P& p) const {
    return p.size;  // Payload.
  }
};

/// The payload pattern '0'..'9', repeated. The block holds whole periods,
/// so appending it block after block continues the pattern seamlessly.
constexpr std::size_t kPatternBlock = 4000;
static_assert(kPatternBlock % 10 == 0);
constexpr std::array<std::uint8_t, kPatternBlock> kPattern = [] {
  std::array<std::uint8_t, kPatternBlock> block{};
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<std::uint8_t>('0' + (i % 10));
  }
  return block;
}();

/// Append `n` pattern bytes, starting at '0'.
void fill_pattern(Bytes& out, std::size_t n) {
  while (n > 0) {
    const std::size_t take = std::min(n, kPatternBlock);
    out.insert(out.end(), kPattern.begin(), kPattern.begin() + take);
    n -= take;
  }
}

}  // namespace

void FrameBuilder::push(Layer layer, Marker marker) {
  layers_.push_back(std::move(layer));
  markers_.push_back(marker);
}

FrameBuilder& FrameBuilder::ethernet(MacAddress src, MacAddress dst) {
  EthernetHeader h;
  h.src = src;
  h.dst = dst;
  push(h);
  return *this;
}

FrameBuilder& FrameBuilder::vlan(std::uint16_t vid, std::uint8_t pcp) {
  VlanTag t;
  t.vid = vid;
  t.pcp = pcp;
  push(t);
  return *this;
}

FrameBuilder& FrameBuilder::mpls(std::uint32_t label, std::uint8_t ttl) {
  MplsLabel l;
  l.label = label;
  l.ttl = ttl;
  push(l);
  return *this;
}

FrameBuilder& FrameBuilder::pseudowire(std::uint16_t sequence) {
  PseudoWireControlWord cw;
  cw.sequence = sequence;
  push(cw);
  return *this;
}

FrameBuilder& FrameBuilder::arp(MacAddress sender_mac, Ipv4Address sender_ip,
                                Ipv4Address target_ip, bool reply) {
  ArpHeader h;
  h.opcode = reply ? 2 : 1;
  h.sender_mac = sender_mac;
  h.sender_ip = sender_ip;
  h.target_ip = target_ip;
  push(h);
  return *this;
}

FrameBuilder& FrameBuilder::ipv4(Ipv4Address src, Ipv4Address dst,
                                 std::uint8_t ttl) {
  Ipv4Header h;
  h.src = src;
  h.dst = dst;
  h.ttl = ttl;
  push(h);
  return *this;
}

FrameBuilder& FrameBuilder::ipv6(Ipv6Address src, Ipv6Address dst,
                                 std::uint8_t hop_limit) {
  Ipv6Header h;
  h.src = src;
  h.dst = dst;
  h.hop_limit = hop_limit;
  push(h);
  return *this;
}

FrameBuilder& FrameBuilder::tcp(std::uint16_t src_port, std::uint16_t dst_port,
                                std::uint8_t flags, std::uint32_t seq,
                                std::uint32_t ack) {
  TcpHeader h;
  h.src_port = src_port;
  h.dst_port = dst_port;
  h.flags = flags;
  h.seq = seq;
  h.ack = ack;
  push(h);
  return *this;
}

FrameBuilder& FrameBuilder::udp(std::uint16_t src_port,
                                std::uint16_t dst_port) {
  UdpHeader h;
  h.src_port = src_port;
  h.dst_port = dst_port;
  push(h);
  return *this;
}

FrameBuilder& FrameBuilder::icmp(std::uint8_t type, std::uint8_t code) {
  IcmpHeader h;
  h.type = type;
  h.code = code;
  push(h);
  return *this;
}

FrameBuilder& FrameBuilder::dns(std::uint16_t id, bool response) {
  DnsHeader h;
  h.id = id;
  h.is_response = response;
  if (response) h.answer_count = 1;
  push(h);
  return *this;
}

FrameBuilder& FrameBuilder::tls(std::uint8_t content_type) {
  TlsRecordHeader h;
  h.content_type = content_type;
  push(h);
  return *this;
}

FrameBuilder& FrameBuilder::ntp() {
  push(NtpHeader{});
  return *this;
}

FrameBuilder& FrameBuilder::vxlan(std::uint32_t vni) {
  VxlanHeader h;
  h.vni = vni;
  push(h);
  return *this;
}

FrameBuilder& FrameBuilder::gre() {
  push(GreHeader{});
  return *this;
}

FrameBuilder& FrameBuilder::ssh_banner() {
  push(Payload{kSshBannerSize}, Marker::kSsh);
  return *this;
}

FrameBuilder& FrameBuilder::http_request() {
  push(Payload{kHttpRequestSize}, Marker::kHttp);
  return *this;
}

FrameBuilder& FrameBuilder::payload(std::size_t size) {
  push(Payload{size});
  return *this;
}

FrameBuilder& FrameBuilder::pad_to(std::size_t frame_size) {
  pad_to_ = frame_size;
  return *this;
}

void FrameBuilder::build_into(FrameStore& store, util::Nanos timestamp) const {
  assert(!layers_.empty());
  scratch_ = layers_;  // Working copy: builder stays reusable + const.
  const std::size_t start = store.arena().size();
  resolve_and_serialize(scratch_, store.arena(), 1);
  store.commit(start, timestamp);
}

void FrameBuilder::build_many_into(FrameStore& store,
                                   std::span<const util::Nanos> timestamps,
                                   std::span<const std::uint32_t> values,
                                   PerFrameField field) const {
  assert(!layers_.empty());
  assert(field == PerFrameField::kNone || values.size() == timestamps.size());
  if (timestamps.empty()) return;
  // Serialize the stack once, as frame 0, straight into the arena, with
  // room reserved for the whole batch so frame 0 stays put while later
  // frames copy it. resolve_and_serialize() leaves scratch_ holding the
  // *resolved* layers (padding appended), so their sizes give the exact
  // byte offset of every header in the frame.
  scratch_ = layers_;
  Bytes& arena = store.arena();
  const std::size_t first = arena.size();
  resolve_and_serialize(scratch_, arena, timestamps.size());
  const std::size_t length = arena.size() - first;

  // Locate the patch slots. Header layouts are fixed: TcpHeader encodes
  // seq as BE32 at +4 and ack as BE32 at +8; DnsHeader encodes id as BE16
  // at +0. Neither field feeds any resolved length/chaining/checksum
  // field, so stamping them into the serialized bytes is equivalent to
  // re-serializing the stack with the value threaded through.
  struct Slot {
    std::size_t offset;
    bool wide;  ///< true: BE32, false: BE16.
  };
  Slot slots[4];
  std::size_t slot_count = 0;
  auto add_slot = [&](std::size_t offset, bool wide) {
    assert(slot_count < std::size(slots));
    if (slot_count < std::size(slots)) slots[slot_count++] = Slot{offset, wide};
  };
  if (field != PerFrameField::kNone) {
    std::size_t offset = 0;
    for (const Layer& l : scratch_) {
      if (std::holds_alternative<TcpHeader>(l)) {
        add_slot(offset + (field == PerFrameField::kTcpSeqAndDnsId ? 4 : 8),
                 true);
      } else if (field == PerFrameField::kTcpSeqAndDnsId &&
                 std::holds_alternative<DnsHeader>(l)) {
        add_slot(offset, false);
      }
      offset += std::visit(SizeVisitor{}, l);
    }
  }

  // Frame i > 0 copies frame 0, already stamped, and overwrites every slot.
  for (std::size_t i = 0; i < timestamps.size(); ++i) {
    std::size_t start = first;
    if (i > 0) {
      start = arena.size();
      arena.resize(start + length);
      std::memcpy(arena.data() + start, arena.data() + first, length);
    }
    for (std::size_t s = 0; s < slot_count; ++s) {
      std::uint8_t* p = arena.data() + start + slots[s].offset;
      const std::uint32_t v = values[i];
      if (slots[s].wide) {
        p[0] = static_cast<std::uint8_t>(v >> 24);
        p[1] = static_cast<std::uint8_t>(v >> 16);
        p[2] = static_cast<std::uint8_t>(v >> 8);
        p[3] = static_cast<std::uint8_t>(v);
      } else {
        p[0] = static_cast<std::uint8_t>(v >> 8);
        p[1] = static_cast<std::uint8_t>(v);
      }
    }
    store.commit(start, timestamps[i]);
  }
}

void FrameBuilder::reset() {
  layers_.clear();
  markers_.clear();
  pad_to_ = 0;
}

void FrameBuilder::resolve_and_serialize(std::vector<Layer>& layers,
                                         Bytes& out,
                                         std::size_t frames) const {
  // Grow (or append) the trailing payload so the frame reaches pad_to_.
  std::size_t total = 0;
  for (const Layer& l : layers) total += std::visit(SizeVisitor{}, l);
  if (total < pad_to_) {
    const std::size_t extra = pad_to_ - total;
    if (auto* p = std::get_if<Payload>(&layers.back());
        p != nullptr && markers_.back() == Marker::kNone) {
      p->size += extra;
    } else {
      layers.push_back(Payload{extra});
    }
    total = pad_to_;
  }

  // Resolve chaining and length fields, looking one layer ahead. `after`
  // counts the bytes stacked above layer i.
  std::size_t after = total;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    after -= std::visit(SizeVisitor{}, layers[i]);
    const Layer* next = i + 1 < layers.size() ? &layers[i + 1] : nullptr;
    auto ethertype_of_next = [&]() -> std::uint16_t {
      if (next == nullptr) return 0;
      if (std::holds_alternative<VlanTag>(*next)) return kEtherTypeVlan;
      if (std::holds_alternative<MplsLabel>(*next)) {
        return kEtherTypeMplsUnicast;
      }
      if (std::holds_alternative<Ipv4Header>(*next)) return kEtherTypeIpv4;
      if (std::holds_alternative<Ipv6Header>(*next)) return kEtherTypeIpv6;
      if (std::holds_alternative<ArpHeader>(*next)) return kEtherTypeArp;
      return 0;
    };
    auto ip_proto_of_next = [&]() -> std::uint8_t {
      if (next == nullptr) return 0;
      if (std::holds_alternative<TcpHeader>(*next)) return kIpProtoTcp;
      if (std::holds_alternative<UdpHeader>(*next)) return kIpProtoUdp;
      if (std::holds_alternative<IcmpHeader>(*next)) return kIpProtoIcmp;
      if (std::holds_alternative<GreHeader>(*next)) return kIpProtoGre;
      return 0;
    };
    if (auto* eth = std::get_if<EthernetHeader>(&layers[i])) {
      eth->ethertype = ethertype_of_next();
    } else if (auto* vlan = std::get_if<VlanTag>(&layers[i])) {
      vlan->ethertype = ethertype_of_next();
    } else if (auto* mpls = std::get_if<MplsLabel>(&layers[i])) {
      mpls->bottom_of_stack =
          next == nullptr || !std::holds_alternative<MplsLabel>(*next);
    } else if (auto* ip4 = std::get_if<Ipv4Header>(&layers[i])) {
      ip4->protocol = ip_proto_of_next();
      ip4->total_length =
          static_cast<std::uint16_t>(Ipv4Header::kSize + after);
    } else if (auto* ip6 = std::get_if<Ipv6Header>(&layers[i])) {
      ip6->next_header = ip_proto_of_next();
      ip6->payload_length = static_cast<std::uint16_t>(after);
    } else if (auto* udp = std::get_if<UdpHeader>(&layers[i])) {
      udp->length = static_cast<std::uint16_t>(UdpHeader::kSize + after);
    } else if (auto* tls = std::get_if<TlsRecordHeader>(&layers[i])) {
      tls->length = static_cast<std::uint16_t>(after);
    } else if (auto* gre = std::get_if<GreHeader>(&layers[i])) {
      gre->protocol_type =
          next != nullptr && std::holds_alternative<EthernetHeader>(*next)
              ? kEtherTypeTransparentEthernet
              : ethertype_of_next();
    }
  }

  // Grow geometrically when appending into a shared arena: an exact-fit
  // reserve would reallocate (and copy the whole arena) on every frame,
  // turning a burst render quadratic in its byte size.
  const std::size_t needed = out.size() + frames * total;
  if (out.capacity() < needed) {
    out.reserve(std::max(needed, out.capacity() + out.capacity() / 2));
  }
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (const auto* p = std::get_if<Payload>(&layers[i])) {
      const Marker marker =
          i < markers_.size() ? markers_[i] : Marker::kNone;
      std::size_t remaining = p->size;
      if (marker == Marker::kSsh) {
        encode_ssh_banner(out);
        remaining -= kSshBannerSize;
      } else if (marker == Marker::kHttp) {
        encode_http_request(out);
        remaining -= kHttpRequestSize;
      }
      fill_pattern(out, remaining);
    } else {
      std::visit([&out](const auto& h) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(h)>, Payload>) {
          h.encode(out);
        }
      }, layers[i]);
    }
  }
}

}  // namespace patchwork::net
