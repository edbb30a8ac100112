#include "capture/anonymize.hpp"

#include "net/checksum.hpp"

namespace patchwork::capture {

std::uint64_t Anonymizer::keyed_hash(std::uint64_t value) const {
  // SplitMix64-style mixing keyed by XOR — deterministic, well distributed,
  // and cheap enough for per-packet use in the offload pipeline.
  std::uint64_t z = value ^ key_;
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint32_t Anonymizer::map_ipv4(std::uint32_t addr) const {
  // Preserve the /8; scramble the host 24 bits with a keyed hash. The hash
  // is a function of the full address so distinct hosts stay distinct with
  // overwhelming probability within a trace.
  const std::uint32_t prefix = addr & 0xff000000u;
  const std::uint32_t scrambled =
      static_cast<std::uint32_t>(keyed_hash(addr)) & 0x00ffffffu;
  return prefix | scrambled;
}

namespace {

void rewrite_be32(std::span<std::uint8_t> bytes, std::size_t off,
                  std::uint32_t v) {
  bytes[off] = static_cast<std::uint8_t>(v >> 24);
  bytes[off + 1] = static_cast<std::uint8_t>(v >> 16);
  bytes[off + 2] = static_cast<std::uint8_t>(v >> 8);
  bytes[off + 3] = static_cast<std::uint8_t>(v);
}

}  // namespace

std::size_t Anonymizer::scrub(std::span<std::uint8_t> bytes,
                              const net::ParsedFrame& parsed) const {
  std::size_t rewritten = 0;
  for (const net::LayerInfo& layer : parsed.layers) {
    switch (layer.protocol) {
      case net::Protocol::kEthernet: {
        if (layer.length < net::EthernetHeader::kSize) break;
        for (int which = 0; which < 2; ++which) {
          const std::size_t off =
              layer.offset + static_cast<std::size_t>(which) * 6;
          std::uint64_t mac = 0;
          for (int i = 0; i < 6; ++i) mac = (mac << 8) | bytes[off + i];
          std::uint64_t mapped = keyed_hash(mac);
          bytes[off] = 0x02;  // Locally administered, unicast.
          for (int i = 1; i < 6; ++i) {
            bytes[off + i] =
                static_cast<std::uint8_t>(mapped >> (8 * (5 - i)));
          }
          ++rewritten;
        }
        break;
      }
      case net::Protocol::kIpv4: {
        if (layer.length < net::Ipv4Header::kSize) break;
        const std::size_t off = layer.offset;
        auto read_be32 = [&](std::size_t o) {
          return (static_cast<std::uint32_t>(bytes[o]) << 24) |
                 (static_cast<std::uint32_t>(bytes[o + 1]) << 16) |
                 (static_cast<std::uint32_t>(bytes[o + 2]) << 8) |
                 static_cast<std::uint32_t>(bytes[o + 3]);
        };
        rewrite_be32(bytes, off + 12, map_ipv4(read_be32(off + 12)));
        rewrite_be32(bytes, off + 16, map_ipv4(read_be32(off + 16)));
        rewritten += 2;
        // Recompute the header checksum over the rewritten header.
        bytes[off + 10] = 0;
        bytes[off + 11] = 0;
        const std::uint16_t sum = net::internet_checksum(
            {bytes.data() + off, net::Ipv4Header::kSize});
        bytes[off + 10] = static_cast<std::uint8_t>(sum >> 8);
        bytes[off + 11] = static_cast<std::uint8_t>(sum);
        break;
      }
      case net::Protocol::kIpv6: {
        if (layer.length < net::Ipv6Header::kSize) break;
        // Scramble the interface-identifier half of both addresses.
        for (std::size_t base : {layer.offset + 8 + 8, layer.offset + 24 + 8}) {
          std::uint64_t low = 0;
          for (int i = 0; i < 8; ++i) low = (low << 8) | bytes[base + static_cast<std::size_t>(i)];
          const std::uint64_t mapped = keyed_hash(low);
          for (int i = 0; i < 8; ++i) {
            bytes[base + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(mapped >> (8 * (7 - i)));
          }
          ++rewritten;
        }
        break;
      }
      default:
        break;
    }
  }
  return rewritten;
}

}  // namespace patchwork::capture
