// Close-to-source trace anonymization.
//
// Requirement (6) of Section 1: researchers "often must carry out
// close-to-source traffic processing — such as anonymization". This
// transform rewrites addresses *in the captured bytes* (so downstream pcap
// consumers never see real addresses) deterministically under a key:
//   * IPv4 addresses: keyed permutation that preserves the /8 prefix, so
//     analyses that depend on 10/8 membership still work;
//   * IPv6 addresses: keyed scrambling of the lower 64 bits, preserving
//     the prefix;
//   * MACs: replaced with locally-administered addresses derived from a
//     keyed hash.
// The IPv4 header checksum is recomputed after rewriting. The same key
// always produces the same mapping, so flows remain correlatable.
#pragma once

#include <cstdint>
#include <span>

#include "net/parser.hpp"

namespace patchwork::capture {

class Anonymizer {
 public:
  explicit Anonymizer(std::uint64_t key) : key_(key) {}

  /// Rewrites addresses in `bytes` in place, guided by the dissection
  /// `parsed` (which must describe these bytes). Returns the number of
  /// fields rewritten. Accepts any mutable byte range — including a slice
  /// of a pcap stream — so the zero-copy write path can scrub in place.
  std::size_t scrub(std::span<std::uint8_t> bytes,
                    const net::ParsedFrame& parsed) const;

  std::uint32_t map_ipv4(std::uint32_t addr) const;
  std::uint64_t keyed_hash(std::uint64_t value) const;

 private:
  std::uint64_t key_;
};

}  // namespace patchwork::capture
