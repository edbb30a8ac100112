// The small profile the golden-bytes tests pin: two sites, a flow stitched
// across two samples, SYN/RST/pure-ACK frames, VLAN+MPLS-tagged and
// untagged frames, a frame the snaplen cuts inside a header, and a capture
// whose pcap does not open. It touches every analysis, so a pin over what
// the pipeline derives from it covers every CSV and every record field.
#pragma once

#include <utility>
#include <vector>

#include "analysis/digest.hpp"
#include "net/frame_builder.hpp"
#include "testing/fixtures.hpp"

namespace patchwork::testing {

inline void golden_untagged_udp(net::FrameStore& frames, util::Nanos ts) {
  net::FrameBuilder b;
  b.ethernet(net::MacAddress::from_id(5), net::MacAddress::from_id(6))
      .ipv4(net::Ipv4Address::from_octets(10, 0, 1, 5),
            net::Ipv4Address::from_octets(10, 0, 1, 6))
      .udp(5353, 53)
      .payload(40);
  b.build_into(frames, ts);
}

inline void golden_pure_ack(net::FrameStore& frames, util::Nanos ts) {
  net::FrameBuilder b;
  b.ethernet(net::MacAddress::from_id(7), net::MacAddress::from_id(8))
      .ipv4(net::Ipv4Address::from_octets(10, 0, 2, 7),
            net::Ipv4Address::from_octets(10, 0, 2, 8))
      .tcp(40000, 22, net::tcp_flags::kAck);
  b.build_into(frames, ts);
}

/// Pseudowire stack whose inner IPv4 header lies past a 64-byte snaplen.
inline void golden_deep_pseudowire(net::FrameStore& frames, util::Nanos ts) {
  net::FrameBuilder b;
  b.ethernet(net::MacAddress::from_id(9), net::MacAddress::from_id(10))
      .vlan(300)
      .mpls(16001)
      .pseudowire()
      .ethernet(net::MacAddress::from_id(11), net::MacAddress::from_id(12))
      .ipv4(net::Ipv4Address::from_octets(10, 0, 3, 1),
            net::Ipv4Address::from_octets(10, 0, 3, 2))
      .tcp(7000, 443)
      .payload(10)
      .pad_to(400);
  b.build_into(frames, ts);
}

inline std::vector<analysis::RawCapture> golden_profile() {
  using net::tcp_flags::kAck;
  using net::tcp_flags::kPsh;
  using net::tcp_flags::kRst;
  using net::tcp_flags::kSyn;
  constexpr util::Nanos ms = util::kMillisecond;
  std::vector<analysis::RawCapture> captures;
  // S1, first sample: the stitched flow's handshake and data in both
  // directions, a reset flow, a pure ACK and an untagged UDP frame.
  net::FrameStore s1;
  tcp_frame(s1, 1, 2, 1000, 443, 74, 0, 100, kSyn);
  tcp_frame(s1, 1, 2, 1000, 443, 1900, 2 * ms);
  tcp_frame(s1, 2, 1, 443, 1000, 90, 3 * ms, 100, kAck);
  tcp_frame(s1, 3, 4, 2000, 80, 120, 4 * ms, 100, kRst);
  golden_pure_ack(s1, 5 * ms);
  golden_untagged_udp(s1, 6 * ms);
  captures.push_back(make_capture("S1", 0, s1));
  // S1, second sample ten minutes later: the stitched flow again and a
  // pseudowire frame. The 64-byte snaplen cuts both, the second inside its
  // inner IPv4 header.
  net::FrameStore s1_later;
  tcp_frame(s1_later, 1, 2, 1000, 443, 1500, 1 * ms, 100, kAck | kPsh);
  golden_deep_pseudowire(s1_later, 2 * ms);
  captures.push_back(make_capture("S1", 1, s1_later, 10 * util::kMinute, 64));
  // S2: one readable sample on another VLAN, and one whose pcap is garbage.
  net::FrameStore s2;
  tcp_frame(s2, 5, 6, 3000, 5201, 9000, 0, 200);
  tcp_frame(s2, 5, 6, 3000, 5201, 600, 1 * ms, 200);
  tcp_frame(s2, 6, 5, 5201, 3000, 66, 2 * ms, 200, kAck);
  golden_untagged_udp(s2, 3 * ms);
  captures.push_back(make_capture("S2", 3, s2, 2 * util::kMinute));
  analysis::RawCapture corrupt;
  corrupt.site = "S2";
  corrupt.port = 4;
  corrupt.start = 4 * util::kMinute;
  corrupt.duration = 20 * util::kSecond;
  corrupt.pcap = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02, 0x03};
  captures.push_back(std::move(corrupt));
  return captures;
}

}  // namespace patchwork::testing
