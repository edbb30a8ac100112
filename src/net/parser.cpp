#include "net/parser.hpp"

#include "util/byte_io.hpp"

namespace patchwork::net {

using util::fits;
using util::get_u8;

std::size_t ParsedFrame::header_depth() const {
  std::size_t depth = 0;
  for (const LayerInfo& l : layers) {
    switch (l.protocol) {
      case Protocol::kPayload:
      case Protocol::kIperf:
      case Protocol::kTruncated:
      case Protocol::kMalformed:
        break;
      default:
        ++depth;
    }
  }
  return depth;
}

bool ParsedFrame::has(Protocol p) const { return count(p) > 0; }

std::size_t ParsedFrame::count(Protocol p) const {
  std::size_t n = 0;
  for (const LayerInfo& l : layers) {
    if (l.protocol == p) ++n;
  }
  return n;
}

std::string ParsedFrame::stack_string() const {
  std::size_t total = layers.empty() ? 0 : layers.size() - 1;  // Separators.
  for (const LayerInfo& l : layers) total += to_string(l.protocol).size();
  std::string out;
  out.reserve(total);
  for (const LayerInfo& l : layers) {
    if (!out.empty()) out += '/';
    out += to_string(l.protocol);
  }
  return out;
}

namespace {

/// The next header the walk decodes: which walker, at what offset.
struct Step {
  enum Walker : std::uint8_t {
    kDone,
    kEthernet,
    kVlan,
    kMpls,
    kPseudoWire,
    kArp,
    kIpv4,
    kIpv6,
    kGre,
    kTcp,
    kUdp,
    kIcmp,
    kIcmpv6,
    kDns,
  };
  Walker walker = kDone;
  std::size_t off = 0;
};

/// Dissection state threaded through the layer walkers. Each walker
/// records its layer and returns the next header to decode, and run()
/// loops until one returns kDone, so the walk uses constant stack however
/// deep the headers are stacked.
class Dissector {
 public:
  Dissector(ByteView buf, std::size_t wire_length, ParsedFrame& out)
      : buf_(buf), wire_length_(wire_length), out_(out) {}

  void run() {
    for (Step step{Step::kEthernet, 0}; step.walker != Step::kDone;) {
      step = decode(step);
    }
  }

 private:
  Step decode(Step step) {
    const std::size_t off = step.off;
    switch (step.walker) {
      case Step::kEthernet: return ethernet(off);
      case Step::kVlan: return vlan(off);
      case Step::kMpls: return mpls(off);
      case Step::kPseudoWire: return pseudowire(off);
      case Step::kArp: return arp(off);
      case Step::kIpv4: return ipv4(off);
      case Step::kIpv6: return ipv6(off);
      case Step::kGre: return gre(off);
      case Step::kTcp: return tcp(off);
      case Step::kUdp: return udp(off);
      case Step::kIcmp: return icmp(off, Protocol::kIcmp);
      case Step::kIcmpv6: return icmp(off, Protocol::kIcmpv6);
      case Step::kDns: return dns(off);
      case Step::kDone: break;
    }
    return {};
  }

  /// True if the capture ends before a header of `need` bytes at `off`
  /// could complete but the original frame did extend that far — i.e. the
  /// snaplen, not the sender, cut it short.
  bool truncated_at(std::size_t off, std::size_t need) const {
    return !fits(buf_, off, need) && off + need <= wire_length_;
  }

  void add(Protocol p, std::size_t off, std::size_t len) {
    out_.layers.push_back(LayerInfo{p, off, len});
  }

  Step mark_tail(std::size_t off, std::size_t need) {
    if (truncated_at(off, need)) {
      add(Protocol::kTruncated, off, buf_.size() - off);
    } else if (off < buf_.size()) {
      add(Protocol::kMalformed, off, buf_.size() - off);
    }
    return {};
  }

  Step payload_tail(std::size_t off, Protocol label = Protocol::kPayload) {
    const std::size_t have = buf_.size() > off ? buf_.size() - off : 0;
    const std::size_t wire = wire_length_ > off ? wire_length_ - off : 0;
    if (wire == 0) return {};  // Nothing followed on the wire (bare ACK).
    add(label, off, have);
    return {};
  }

  Step ethernet(std::size_t off) {
    auto eth = EthernetHeader::decode(buf_, off);
    if (!eth) return mark_tail(off, EthernetHeader::kSize);
    add(Protocol::kEthernet, off, EthernetHeader::kSize);
    return by_ethertype(eth->ethertype, off + EthernetHeader::kSize);
  }

  Step by_ethertype(std::uint16_t ethertype, std::size_t off) {
    switch (ethertype) {
      case kEtherTypeVlan: return {Step::kVlan, off};
      case kEtherTypeMplsUnicast: return {Step::kMpls, off};
      case kEtherTypeIpv4: return {Step::kIpv4, off};
      case kEtherTypeIpv6: return {Step::kIpv6, off};
      case kEtherTypeArp: return {Step::kArp, off};
      default: return payload_tail(off);
    }
  }

  Step vlan(std::size_t off) {
    auto tag = VlanTag::decode(buf_, off);
    if (!tag) return mark_tail(off, VlanTag::kSize);
    add(Protocol::kVlan, off, VlanTag::kSize);
    out_.vlan_ids.push_back(tag->vid);
    return by_ethertype(tag->ethertype, off + VlanTag::kSize);
  }

  Step mpls(std::size_t off) {
    auto label = MplsLabel::decode(buf_, off);
    if (!label) return mark_tail(off, MplsLabel::kSize);
    add(Protocol::kMpls, off, MplsLabel::kSize);
    out_.mpls_labels.push_back(label->label);
    const std::size_t next = off + MplsLabel::kSize;
    if (!label->bottom_of_stack) return {Step::kMpls, next};
    // Below the MPLS stack there is no type field. Use the standard first-
    // nibble heuristic: 4 = IPv4, 6 = IPv6, 0 = pseudowire control word.
    if (!fits(buf_, next, 1)) return mark_tail(next, 1);
    switch (get_u8(buf_, next) >> 4) {
      case 4: return {Step::kIpv4, next};
      case 6: return {Step::kIpv6, next};
      case 0: return {Step::kPseudoWire, next};
      default:
        add(Protocol::kMalformed, next, buf_.size() - next);
        return {};
    }
  }

  Step pseudowire(std::size_t off) {
    auto cw = PseudoWireControlWord::decode(buf_, off);
    if (!cw) return mark_tail(off, PseudoWireControlWord::kSize);
    add(Protocol::kPseudoWire, off, PseudoWireControlWord::kSize);
    return {Step::kEthernet, off + PseudoWireControlWord::kSize};
  }

  Step arp(std::size_t off) {
    auto h = ArpHeader::decode(buf_, off);
    if (!h) return mark_tail(off, ArpHeader::kSize);
    add(Protocol::kArp, off, ArpHeader::kSize);
    return {};
  }

  Step ipv4(std::size_t off) {
    auto h = Ipv4Header::decode(buf_, off);
    if (!h) return mark_tail(off, Ipv4Header::kSize);
    add(Protocol::kIpv4, off, Ipv4Header::kSize);
    out_.ipv4 = h;
    return by_ip_proto(h->protocol, off + Ipv4Header::kSize);
  }

  Step ipv6(std::size_t off) {
    auto h = Ipv6Header::decode(buf_, off);
    if (!h) return mark_tail(off, Ipv6Header::kSize);
    add(Protocol::kIpv6, off, Ipv6Header::kSize);
    out_.ipv6 = h;
    return by_ip_proto(h->next_header, off + Ipv6Header::kSize);
  }

  Step by_ip_proto(std::uint8_t proto, std::size_t off) {
    switch (proto) {
      case kIpProtoTcp: return {Step::kTcp, off};
      case kIpProtoUdp: return {Step::kUdp, off};
      case kIpProtoIcmp: return {Step::kIcmp, off};
      case kIpProtoIcmpv6: return {Step::kIcmpv6, off};
      case kIpProtoGre: return {Step::kGre, off};
      default: return payload_tail(off);
    }
  }

  Step gre(std::size_t off) {
    auto h = GreHeader::decode(buf_, off);
    if (!h) return mark_tail(off, GreHeader::kSize);
    add(Protocol::kGre, off, GreHeader::kSize);
    const std::size_t next = off + GreHeader::kSize;
    if (h->protocol_type == kEtherTypeTransparentEthernet) {
      return {Step::kEthernet, next};
    }
    return by_ethertype(h->protocol_type, next);
  }

  Step tcp(std::size_t off) {
    auto h = TcpHeader::decode(buf_, off);
    if (!h) return mark_tail(off, TcpHeader::kSize);
    add(Protocol::kTcp, off, TcpHeader::kSize);
    out_.tcp = h;
    return app_layer(off + TcpHeader::kSize, h->src_port, h->dst_port,
                     /*over_tcp=*/true);
  }

  Step udp(std::size_t off) {
    auto h = UdpHeader::decode(buf_, off);
    if (!h) return mark_tail(off, UdpHeader::kSize);
    add(Protocol::kUdp, off, UdpHeader::kSize);
    out_.udp = h;
    return app_layer(off + UdpHeader::kSize, h->src_port, h->dst_port,
                     /*over_tcp=*/false);
  }

  Step icmp(std::size_t off, Protocol which) {
    auto h = IcmpHeader::decode(buf_, off);
    if (!h) return mark_tail(off, IcmpHeader::kSize);
    add(which, off, IcmpHeader::kSize);
    return payload_tail(off + IcmpHeader::kSize);
  }

  /// Port-based application classification, mirroring the paper's note that
  /// tshark uses layer-4 ports to classify the payload that follows.
  Step app_layer(std::size_t off, std::uint16_t src_port,
                 std::uint16_t dst_port, bool over_tcp) {
    const std::size_t wire_rest = wire_length_ > off ? wire_length_ - off : 0;
    if (wire_rest == 0) return {};  // e.g. a payload-free TCP ACK.
    auto is_port = [&](std::uint16_t p) {
      return src_port == p || dst_port == p;
    };
    if (over_tcp) {
      if (is_port(kPortTls)) {
        if (auto tls = TlsRecordHeader::decode(buf_, off)) {
          add(Protocol::kTls, off, TlsRecordHeader::kSize);
          return payload_tail(off + TlsRecordHeader::kSize);
        }
        if (truncated_at(off, TlsRecordHeader::kSize)) {
          return mark_tail(off, TlsRecordHeader::kSize);
        }
      }
      if (is_port(kPortSsh) && looks_like_ssh_banner(buf_, off)) {
        add(Protocol::kSsh, off, buf_.size() - off);
        return {};
      }
      if (is_port(kPortHttp) && looks_like_http(buf_, off)) {
        add(Protocol::kHttp, off, buf_.size() - off);
        return {};
      }
      if (is_port(kPortDns)) return {Step::kDns, off};
      if (is_port(kPortIperf)) return payload_tail(off, Protocol::kIperf);
      return payload_tail(off);
    }
    // UDP.
    if (is_port(kPortDns)) return {Step::kDns, off};
    if (is_port(kPortNtp)) {
      if (auto h = NtpHeader::decode(buf_, off)) {
        add(Protocol::kNtp, off, NtpHeader::kSize);
        return {};
      }
      if (truncated_at(off, NtpHeader::kSize)) {
        return mark_tail(off, NtpHeader::kSize);
      }
    }
    if (is_port(kPortVxlan)) {
      if (auto h = VxlanHeader::decode(buf_, off)) {
        add(Protocol::kVxlan, off, VxlanHeader::kSize);
        out_.vxlan_vni = h->vni;
        return {Step::kEthernet, off + VxlanHeader::kSize};
      }
      if (truncated_at(off, VxlanHeader::kSize)) {
        return mark_tail(off, VxlanHeader::kSize);
      }
    }
    if (is_port(kPortIperf)) return payload_tail(off, Protocol::kIperf);
    return payload_tail(off);
  }

  Step dns(std::size_t off) {
    auto h = DnsHeader::decode(buf_, off);
    if (!h) return mark_tail(off, DnsHeader::kSize);
    add(Protocol::kDns, off, DnsHeader::kSize);
    return {};
  }

  ByteView buf_;
  std::size_t wire_length_;
  ParsedFrame& out_;
};

}  // namespace

ParsedFrame parse_bytes(ByteView bytes, std::size_t wire_length,
                        util::Nanos timestamp) {
  ParsedFrame out;
  out.wire_length = wire_length;
  out.captured_length = bytes.size();
  out.timestamp = timestamp;
  Dissector(bytes, wire_length, out).run();
  return out;
}

}  // namespace patchwork::net
