// Shared helpers for building synthetic frames and captures in tests.
// Frames live in net::FrameStore arenas, the way the data plane holds
// them, and tests read them through net::FrameView.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/digest.hpp"
#include "capture/anonymize.hpp"
#include "net/frame_builder.hpp"
#include "net/parser.hpp"
#include "pcap/pcap.hpp"
#include "traffic/flowgen.hpp"

namespace patchwork::testing {

/// Append a VLAN + MPLS tagged IPv4/TCP frame of `size` wire bytes.
inline void tcp_frame(net::FrameStore& frames, std::uint8_t host_a,
                      std::uint8_t host_b, std::uint16_t sport,
                      std::uint16_t dport, std::size_t size = 256,
                      util::Nanos ts = 0, std::uint16_t vlan = 100,
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
  b.build_into(frames, ts);
}

/// Append one frame of `flow` stamped `ts`, described as render_unit
/// describes it: a data frame, or with `ack` a pure ACK, carrying value 0.
inline void flow_frame(net::FrameStore& frames, const traffic::FlowSpec& flow,
                       util::Nanos ts, bool ack = false) {
  net::FrameBuilder b;
  traffic::describe_frame(b, flow, ack, 0);
  b.build_into(frames, ts);
}

/// Views of every frame in `frames`, in order; they alias its arena.
inline std::vector<net::FrameView> views_of(const net::FrameStore& frames) {
  std::vector<net::FrameView> out;
  out.reserve(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    out.push_back(frames.view(i));
  }
  return out;
}

/// `frame` as a capture with `snaplen` stores it: at most `snaplen` bytes,
/// wire length kept. A snaplen of 0 keeps everything.
inline net::FrameView truncated(net::FrameView frame, std::size_t snaplen) {
  if (snaplen != 0) {
    frame.bytes = frame.bytes.first(std::min(snaplen, frame.bytes.size()));
  }
  return frame;
}

inline net::ParsedFrame parse_view(const net::FrameView& frame) {
  return net::parse_bytes(frame.bytes, frame.wire_length, frame.timestamp);
}

/// Dissect the frame `b` describes, cut to `snaplen` bytes as a capture
/// would (0 keeps everything).
inline net::ParsedFrame parse_built(const net::FrameBuilder& b,
                                    std::size_t snaplen = 0) {
  net::FrameStore store;
  b.build_into(store);
  return parse_view(truncated(store.view(0), snaplen));
}

/// The captured bytes of `frame` with its addresses scrubbed, the way the
/// capture path scrubs each pcap record in place.
inline net::Bytes scrub_copy(const capture::Anonymizer& anon,
                             const net::FrameView& frame) {
  net::Bytes bytes(frame.bytes.begin(), frame.bytes.end());
  anon.scrub(bytes, parse_view(frame));
  return bytes;
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

/// A pcap stream holding `frames`, each cut to `snaplen` bytes.
inline net::Bytes pcap_of(const net::FrameStore& frames,
                          std::uint32_t snaplen) {
  pcap::PcapWriter writer(snaplen);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const net::FrameView f = frames.view(i);
    writer.write_record(f.bytes, f.wire_length, f.timestamp);
  }
  return writer.take_buffer();
}

/// Wrap frames into a RawCapture with a valid pcap stream.
inline analysis::RawCapture make_capture(std::string site, std::uint32_t port,
                                         const net::FrameStore& frames,
                                         util::Nanos start = 0,
                                         std::uint32_t snaplen = 200) {
  analysis::RawCapture raw;
  raw.site = std::move(site);
  raw.port = port;
  raw.start = start;
  raw.duration = 20 * util::kSecond;
  raw.pcap = pcap_of(frames, snaplen);
  return raw;
}

}  // namespace patchwork::testing
