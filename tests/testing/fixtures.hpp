// Shared helpers for building synthetic captures in tests.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/digest.hpp"
#include "capture/anonymize.hpp"
#include "net/frame_builder.hpp"
#include "pcap/pcap.hpp"

namespace patchwork::testing {

inline net::Frame tcp_frame(std::uint8_t host_a, std::uint8_t host_b,
                            std::uint16_t sport, std::uint16_t dport,
                            std::size_t size = 256, util::Nanos ts = 0,
                            std::uint16_t vlan = 100,
                            std::uint8_t flags = net::tcp_flags::kAck |
                                                 net::tcp_flags::kPsh) {
  net::FrameBuilder b;
  b.ethernet(net::MacAddress::from_id(host_a), net::MacAddress::from_id(host_b))
      .vlan(vlan)
      .mpls(16000)
      .ipv4(net::Ipv4Address::from_octets(10, 0, 0, host_a),
            net::Ipv4Address::from_octets(10, 0, 0, host_b))
      .tcp(sport, dport, flags)
      .payload(1)
      .pad_to(size);
  return b.build(ts);
}

/// A view of an owning frame, the shape the data plane hands frames over
/// in. It aliases `frame`.
inline net::FrameView view_of(const net::Frame& frame) {
  return net::FrameView{frame.bytes(), frame.wire_length(), frame.timestamp()};
}

/// Views of owning frames; they alias `frames`.
inline std::vector<net::FrameView> views_of(
    const std::vector<net::Frame>& frames) {
  std::vector<net::FrameView> out;
  out.reserve(frames.size());
  for (const net::Frame& f : frames) out.push_back(view_of(f));
  return out;
}

/// Append an owning frame to a pcap stream.
inline void write_frame(pcap::PcapWriter& writer, const net::Frame& frame) {
  writer.write_record(frame.bytes(), frame.wire_length(), frame.timestamp());
}

/// A copy of `frame` with its addresses scrubbed in place, the way the
/// capture path scrubs each pcap record.
inline net::Frame scrub_copy(const capture::Anonymizer& anon,
                             const net::Frame& frame) {
  std::vector<std::uint8_t> bytes(frame.bytes().begin(), frame.bytes().end());
  anon.scrub(bytes, net::parse_frame(frame));
  return net::Frame(std::move(bytes), frame.wire_length(), frame.timestamp());
}

/// Every record digest() hands out for `capture`, in capture order.
inline std::vector<analysis::AcapRecord> digest_records(
    const analysis::RawCapture& capture,
    analysis::DigestStats* stats = nullptr) {
  std::vector<analysis::AcapRecord> records;
  analysis::digest(capture, stats, [&records](const analysis::AcapRecord& r) {
    records.push_back(r);
  });
  return records;
}

/// Wrap frames into a RawCapture with a valid pcap stream.
inline analysis::RawCapture make_capture(
    std::string site, std::uint32_t port,
    const std::vector<net::Frame>& frames, util::Nanos start = 0,
    std::uint32_t snaplen = 200) {
  pcap::PcapWriter writer(snaplen);
  for (const net::Frame& f : frames) write_frame(writer, f);
  analysis::RawCapture raw;
  raw.site = std::move(site);
  raw.port = port;
  raw.start = start;
  raw.duration = 20 * util::kSecond;
  raw.pcap = writer.take_buffer();
  return raw;
}

}  // namespace patchwork::testing
