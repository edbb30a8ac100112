#include "analysis/acap.hpp"

#include <algorithm>
#include <charconv>
#include <string_view>
#include <tuple>

namespace patchwork::analysis {

bool FlowKey::operator<(const FlowKey& other) const {
  return std::tie(vlan_ids, mpls_labels, ip_version, addr_a, addr_b, l4_proto,
                  port_a, port_b) <
         std::tie(other.vlan_ids, other.mpls_labels, other.ip_version,
                  other.addr_a, other.addr_b, other.l4_proto, other.port_a,
                  other.port_b);
}

std::string FlowKey::to_string() const {
  std::string out;
  out.reserve(40 + 6 * vlan_ids.size() + 8 * mpls_labels.size());
  const auto append = [&out](std::uint32_t value) {
    char digits[10] = {};
    const auto end = std::to_chars(digits, digits + sizeof digits, value).ptr;
    out.append(digits, end);
  };
  out += "vlan[";
  for (std::size_t i = 0; i < vlan_ids.size(); ++i) {
    if (i) out += ',';
    append(vlan_ids[i]);
  }
  out += "]mpls[";
  for (std::size_t i = 0; i < mpls_labels.size(); ++i) {
    if (i) out += ',';
    append(mpls_labels[i]);
  }
  out += "]v";
  append(ip_version);
  out += " proto";
  append(l4_proto);
  out += ' ';
  append(port_a);
  out += "<->";
  append(port_b);
  return out;
}

std::size_t FlowKeyHash::operator()(const FlowKey& k) const {
  // FNV-1a over the key's serialized fields.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (auto v : k.vlan_ids) mix(v);
  for (auto v : k.mpls_labels) mix(v);
  mix(k.ip_version);
  for (int i = 0; i < 16; ++i) {
    mix(k.addr_a[static_cast<std::size_t>(i)]);
    mix(k.addr_b[static_cast<std::size_t>(i)]);
  }
  mix(k.l4_proto);
  mix(k.port_a);
  mix(k.port_b);
  return static_cast<std::size_t>(h);
}

std::size_t ProtocolStackHash::operator()(const ProtocolStack& stack) const {
  static_assert(sizeof(net::Protocol) == 1);
  return std::hash<std::string_view>{}(std::string_view(
      reinterpret_cast<const char*>(stack.data()), stack.size()));
}

std::size_t AcapRecord::header_depth() const {
  std::size_t depth = 0;
  for (net::Protocol p : stack) {
    switch (p) {
      case net::Protocol::kPayload:
      case net::Protocol::kIperf:
      case net::Protocol::kTruncated:
      case net::Protocol::kMalformed:
        break;
      default:
        ++depth;
    }
  }
  return depth;
}

bool AcapRecord::has(net::Protocol p) const {
  return std::find(stack.begin(), stack.end(), p) != stack.end();
}

FlowKey flow_key_of(const net::ParsedFrame& frame) {
  FlowKey key;
  key.vlan_ids = frame.vlan_ids;
  key.mpls_labels = frame.mpls_labels;

  std::array<std::uint8_t, 16> src{}, dst{};
  std::uint16_t sport = 0, dport = 0;
  if (frame.ipv4) {
    key.ip_version = 4;
    const std::uint32_t s = frame.ipv4->src.value;
    const std::uint32_t d = frame.ipv4->dst.value;
    for (int i = 0; i < 4; ++i) {
      src[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(s >> (8 * (3 - i)));
      dst[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(d >> (8 * (3 - i)));
    }
  } else if (frame.ipv6) {
    key.ip_version = 6;
    src = frame.ipv6->src.bytes;
    dst = frame.ipv6->dst.bytes;
  }
  if (frame.tcp) {
    key.l4_proto = net::kIpProtoTcp;
    sport = frame.tcp->src_port;
    dport = frame.tcp->dst_port;
  } else if (frame.udp) {
    key.l4_proto = net::kIpProtoUdp;
    sport = frame.udp->src_port;
    dport = frame.udp->dst_port;
  }
  // Canonical direction: (addr, port) pair of the lower endpoint first.
  const bool keep = std::tie(src, sport) <= std::tie(dst, dport);
  key.addr_a = keep ? src : dst;
  key.addr_b = keep ? dst : src;
  key.port_a = keep ? sport : dport;
  key.port_b = keep ? dport : sport;
  return key;
}

AcapRecord abstract_frame(const net::ParsedFrame& frame) {
  AcapRecord rec;
  for (const net::LayerInfo& l : frame.layers) rec.stack.push_back(l.protocol);
  rec.wire_length = static_cast<std::uint32_t>(frame.wire_length);
  rec.captured_length = static_cast<std::uint32_t>(frame.captured_length);
  rec.timestamp = frame.timestamp;
  rec.flow = flow_key_of(frame);
  rec.tcp_flags = frame.tcp ? frame.tcp->flags : 0;
  return rec;
}

}  // namespace patchwork::analysis
