#include "traffic/flowgen.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>

#include "net/protocol.hpp"

namespace patchwork::traffic {

bool app_is_tcp(FlowApp app) {
  switch (app) {
    case FlowApp::kIperfTcp:
    case FlowApp::kTls:
    case FlowApp::kSsh:
    case FlowApp::kHttp:
      return true;
    default:
      return false;
  }
}

namespace {

std::uint16_t app_dst_port(FlowApp app) {
  switch (app) {
    case FlowApp::kIperfTcp:
    case FlowApp::kIperfUdp: return net::kPortIperf;
    case FlowApp::kTls: return net::kPortTls;
    case FlowApp::kSsh: return net::kPortSsh;
    case FlowApp::kHttp: return net::kPortHttp;
    case FlowApp::kDns: return net::kPortDns;
    case FlowApp::kNtp: return net::kPortNtp;
    case FlowApp::kVxlan: return net::kPortVxlan;
    default: return 0;
  }
}

/// Typical wire frame size for non-bulk applications.
std::size_t app_frame_size(util::Rng& rng, FlowApp app) {
  switch (app) {
    case FlowApp::kDns: return rng.uniform_u64(84, 140);
    case FlowApp::kNtp: return 110;
    case FlowApp::kArp: return 64;
    case FlowApp::kIcmp: return 98;
    case FlowApp::kSsh: return rng.uniform_u64(90, 500);
    case FlowApp::kHttp: return rng.uniform_u64(180, 1460);
    case FlowApp::kTls: return rng.uniform_u64(140, 1514);
    default: return 1514;
  }
}

}  // namespace

FlowSpec draw_flow(util::Rng& rng, const SiteWorkloadProfile& profile) {
  FlowSpec flow;
  flow.app = static_cast<FlowApp>(rng.weighted_index(profile.app_weights));

  const EncapsulationProfile& enc = profile.encapsulation;
  if (rng.chance(enc.vlan_probability)) {
    flow.vlan_id = static_cast<std::uint16_t>(rng.uniform_u64(2, 4000));
  }
  // ARP stays in the local segment: VLAN at most.
  if (flow.app != FlowApp::kArp && rng.chance(enc.mpls_probability)) {
    flow.mpls_labels.push_back(
        static_cast<std::uint32_t>(rng.uniform_u64(16000, 17000)));
    if (rng.chance(enc.second_mpls_probability)) {
      flow.mpls_labels.push_back(
          static_cast<std::uint32_t>(rng.uniform_u64(17000, 18000)));
    }
    flow.pseudowire = rng.chance(enc.pseudowire_probability);
  }

  flow.ipv6 = flow.app != FlowApp::kArp && flow.app != FlowApp::kVxlan &&
              flow.app != FlowApp::kGre && rng.chance(profile.ipv6_fraction);

  flow.src_mac = net::MacAddress::from_id(rng.bits() & 0xffffffffffull);
  flow.dst_mac = net::MacAddress::from_id(rng.bits() & 0xffffffffffull);
  // FABRIC slices commonly reuse 10/8 — the reason flows must be keyed on
  // virtualization tags too. A large share of slices are built from the
  // same scripted templates and land on the conventional 10.0.0.x
  // addresses, so address collisions between slices are the norm, not the
  // exception.
  const bool scripted_template = rng.chance(0.5);
  if (scripted_template) {
    flow.src_ip = net::Ipv4Address::from_octets(
        10, 0, 0, static_cast<std::uint8_t>(rng.uniform_u64(1, 16)));
    do {
      flow.dst_ip = net::Ipv4Address::from_octets(
          10, 0, 0, static_cast<std::uint8_t>(rng.uniform_u64(1, 16)));
    } while (flow.dst_ip == flow.src_ip);
  } else {
    flow.src_ip = net::Ipv4Address::from_octets(
        10, static_cast<std::uint8_t>(rng.uniform_u64(0, 255)),
        static_cast<std::uint8_t>(rng.uniform_u64(0, 255)),
        static_cast<std::uint8_t>(rng.uniform_u64(1, 254)));
    flow.dst_ip = net::Ipv4Address::from_octets(
        10, static_cast<std::uint8_t>(rng.uniform_u64(0, 255)),
        static_cast<std::uint8_t>(rng.uniform_u64(0, 255)),
        static_cast<std::uint8_t>(rng.uniform_u64(1, 254)));
  }
  std::array<std::uint16_t, 8> words{};
  words[0] = 0xfd00;
  for (std::size_t i = 1; i < 8; ++i) {
    words[i] = static_cast<std::uint16_t>(rng.bits());
  }
  flow.src_ip6 = net::Ipv6Address::from_words(words);
  for (std::size_t i = 1; i < 8; ++i) {
    words[i] = static_cast<std::uint16_t>(rng.bits());
  }
  flow.dst_ip6 = net::Ipv6Address::from_words(words);

  // Scripted experiments pin their client port (iperf --cport and
  // friends), so the same narrow port range recurs across slices.
  flow.src_port =
      scripted_template
          ? static_cast<std::uint16_t>(rng.uniform_u64(49152, 49167))
          : static_cast<std::uint16_t>(rng.uniform_u64(32768, 60999));
  flow.dst_port = app_dst_port(flow.app);

  // MTU-filling flows: throughput tools always, and most heavy TLS/HTTP
  // transfers (interactive TLS/HTTP sessions keep their mid-size frames).
  bool mtu_filling =
      flow.app == FlowApp::kIperfTcp || flow.app == FlowApp::kIperfUdp ||
      flow.app == FlowApp::kVxlan || flow.app == FlowApp::kGre;
  if ((flow.app == FlowApp::kTls || flow.app == FlowApp::kHttp) &&
      rng.chance(0.7)) {
    mtu_filling = true;
  }
  if (mtu_filling && profile.small_message_site) {
    // Message-based experiments: "bulk" means a stream of short frames.
    flow.data_frame_size = rng.uniform_u64(130, 511);
    flow.message_stream = true;
  } else if (mtu_filling) {
    flow.data_frame_size = rng.chance(profile.jumbo_fraction)
                               ? profile.mtu_frame_size
                               : 1514;
  } else {
    flow.data_frame_size = app_frame_size(rng, flow.app);
  }
  flow.total_bytes = static_cast<std::uint64_t>(rng.pareto(
      profile.flow_size_min, profile.flow_size_max, profile.flow_size_alpha));
  return flow;
}

namespace {

/// Stack the underlay encapsulation onto `b` and return whether an inner
/// Ethernet was emitted (pseudowire case).
void build_underlay(net::FrameBuilder& b, const FlowSpec& flow) {
  b.ethernet(flow.src_mac, flow.dst_mac);
  if (flow.vlan_id) b.vlan(*flow.vlan_id);
  for (std::uint32_t label : flow.mpls_labels) b.mpls(label);
  if (!flow.mpls_labels.empty() && flow.pseudowire) {
    b.pseudowire();
    b.ethernet(flow.src_mac, flow.dst_mac);
  }
}

void build_network(net::FrameBuilder& b, const FlowSpec& flow,
                   bool reverse = false) {
  if (flow.ipv6) {
    b.ipv6(reverse ? flow.dst_ip6 : flow.src_ip6,
           reverse ? flow.src_ip6 : flow.dst_ip6);
  } else {
    b.ipv4(reverse ? flow.dst_ip : flow.src_ip,
           reverse ? flow.src_ip : flow.dst_ip);
  }
}

/// Describe one data frame of `flow` on `b`. Returns false for an
/// unreachable app value (caller emits an empty frame).
bool fill_data_frame(net::FrameBuilder& b, const FlowSpec& flow,
                     std::uint32_t seq) {
  using net::tcp_flags::kAck;
  using net::tcp_flags::kPsh;
  switch (flow.app) {
    case FlowApp::kArp:
      b.ethernet(flow.src_mac, flow.dst_mac);
      if (flow.vlan_id) b.vlan(*flow.vlan_id);
      b.arp(flow.src_mac, flow.src_ip, flow.dst_ip);
      b.pad_to(std::max<std::size_t>(flow.data_frame_size, 64));
      return true;
    case FlowApp::kIcmp:
      build_underlay(b, flow);
      build_network(b, flow);
      b.icmp(8, 0).payload(48).pad_to(flow.data_frame_size);
      return true;
    case FlowApp::kDns:
      build_underlay(b, flow);
      build_network(b, flow);
      b.udp(flow.src_port, flow.dst_port)
          .dns(static_cast<std::uint16_t>(seq))
          .payload(24)
          .pad_to(flow.data_frame_size);
      return true;
    case FlowApp::kNtp:
      build_underlay(b, flow);
      build_network(b, flow);
      b.udp(flow.src_port, flow.dst_port).ntp().pad_to(flow.data_frame_size);
      return true;
    case FlowApp::kIperfUdp:
      build_underlay(b, flow);
      build_network(b, flow);
      b.udp(flow.src_port, flow.dst_port).pad_to(flow.data_frame_size);
      return true;
    case FlowApp::kVxlan: {
      build_underlay(b, flow);
      build_network(b, flow);
      b.udp(flow.src_port, flow.dst_port)
          .vxlan(flow.mpls_labels.empty()
                     ? 4096u
                     : flow.mpls_labels.front() & 0xffffffu);
      // Inner tenant frame.
      b.ethernet(flow.dst_mac, flow.src_mac);
      b.ipv4(flow.src_ip, flow.dst_ip);
      b.tcp(flow.src_port, net::kPortIperf, kAck | kPsh, seq);
      b.pad_to(flow.data_frame_size);
      return true;
    }
    case FlowApp::kGre: {
      build_underlay(b, flow);
      b.ipv4(flow.src_ip, flow.dst_ip);
      b.gre();
      // Inner tenant frame through the tunnel.
      b.ethernet(flow.dst_mac, flow.src_mac);
      b.ipv4(flow.src_ip, flow.dst_ip);
      b.tcp(flow.src_port, net::kPortIperf, kAck | kPsh, seq);
      b.pad_to(flow.data_frame_size);
      return true;
    }
    case FlowApp::kTls:
      build_underlay(b, flow);
      build_network(b, flow);
      b.tcp(flow.src_port, flow.dst_port, kAck | kPsh, seq)
          .tls(23)
          .pad_to(flow.data_frame_size);
      return true;
    case FlowApp::kSsh:
      build_underlay(b, flow);
      build_network(b, flow);
      b.tcp(flow.src_port, flow.dst_port, kAck | kPsh, seq)
          .ssh_banner()
          .pad_to(flow.data_frame_size);
      return true;
    case FlowApp::kHttp:
      build_underlay(b, flow);
      build_network(b, flow);
      b.tcp(flow.src_port, flow.dst_port, kAck | kPsh, seq)
          .http_request()
          .pad_to(flow.data_frame_size);
      return true;
    case FlowApp::kIperfTcp:
      build_underlay(b, flow);
      build_network(b, flow);
      b.tcp(flow.src_port, flow.dst_port, kAck | kPsh, seq)
          .payload(1)
          .pad_to(flow.data_frame_size);
      return true;
  }
  return false;
}

void fill_ack_frame(net::FrameBuilder& b, const FlowSpec& flow,
                    std::uint32_t ack) {
  assert(app_is_tcp(flow.app));
  build_underlay(b, flow);
  build_network(b, flow, /*reverse=*/true);
  b.tcp(flow.dst_port, flow.src_port, net::tcp_flags::kAck, 0, ack);
  // Tagged ACK minis land in the paper's dominant small bucket (65-127 B).
  b.pad_to(68);
}

}  // namespace

net::Frame make_data_frame(const FlowSpec& flow, util::Nanos t,
                           std::uint32_t seq) {
  net::FrameBuilder b;
  if (!fill_data_frame(b, flow, seq)) {
    // Unreachable; keep the compiler satisfied.
    return net::Frame({}, t);
  }
  return b.build(t);
}

net::Frame make_ack_frame(const FlowSpec& flow, util::Nanos t,
                          std::uint32_t ack) {
  net::FrameBuilder b;
  fill_ack_frame(b, flow, ack);
  return b.build(t);
}

WindowPlan plan_window(util::Rng& rng, const SiteWorkloadProfile& profile,
                       const WindowParams& params) {
  WindowPlan plan;
  plan.offered_bps = params.target_bps;
  if (params.target_bps <= 0.0) return plan;
  const double duration_s = util::to_seconds(params.duration);
  const double window_bytes = params.target_bps * duration_s / 8.0;

  // How many flows contribute to this window.
  std::size_t flow_count = static_cast<std::size_t>(
      rng.lognormal(profile.flow_count_mu, profile.flow_count_sigma));
  flow_count = std::clamp<std::size_t>(flow_count, 1, 60000);
  plan.flow_count = flow_count;

  // Draw flows and heavy-tailed byte shares. Rendering draws at most
  // ~max_frames frames, but true counts determine offered_pps.
  // Byte shares are heavy-tailed (a few elephants dominate the window),
  // and only bulk-capable applications can be elephants: a DNS or ARP
  // flow contributes a handful of frames no matter its share.
  struct Contribution {
    FlowSpec flow;
    double data_frames = 0.0;  ///< True count in the window.
    double ack_frames = 0.0;
  };
  // A flow can be an elephant only if it moves MTU-filling data frames or
  // is a deliberate message stream; interactive TLS/HTTP sessions and
  // chatter protocols stay mice.
  auto is_bulk = [](const FlowSpec& flow) {
    return flow.data_frame_size >= 1514 || flow.message_stream;
  };
  std::vector<Contribution> contribs;
  contribs.reserve(flow_count);
  std::vector<double> shares(flow_count);
  double share_sum = 0.0;
  for (std::size_t i = 0; i < flow_count; ++i) {
    Contribution c;
    c.flow = draw_flow(rng, profile);
    shares[i] = rng.pareto(1.0, 1e6, 0.6) * (is_bulk(c.flow) ? 30.0 : 1.0);
    share_sum += shares[i];
    contribs.push_back(std::move(c));
  }
  double true_total_frames = 0.0;
  for (std::size_t i = 0; i < flow_count; ++i) {
    Contribution& c = contribs[i];
    double byte_budget = window_bytes * shares[i] / share_sum;
    if (!is_bulk(c.flow)) {
      // Chatter protocols: a few dozen frames at most in 20 s.
      byte_budget = std::min(
          byte_budget, 50.0 * static_cast<double>(c.flow.data_frame_size));
    }
    c.data_frames = std::max(
        1.0, byte_budget / static_cast<double>(c.flow.data_frame_size));
    if (app_is_tcp(c.flow.app)) {
      // Delayed ACKs over jumbo segments: roughly one ACK per five data
      // frames, matching the paper's 74.7% / 14.15% bucket split.
      c.ack_frames = c.data_frames / 5.0;
    }
    true_total_frames += c.data_frames + c.ack_frames;
  }

  plan.offered_pps = true_total_frames / duration_s;
  const double keep =
      true_total_frames <= static_cast<double>(params.max_frames)
          ? 1.0
          : static_cast<double>(params.max_frames) / true_total_frames;

  // Fix every unit's rendered count now (including the fractional-frame
  // coin flip), so rendering consumes no sequential randomness at all.
  for (Contribution& c : contribs) {
    auto plan_unit = [&](double true_count, bool acks) {
      const double expected = true_count * keep;
      std::uint64_t n = static_cast<std::uint64_t>(expected);
      if (rng.chance(expected - static_cast<double>(n))) ++n;
      if (n == 0) return;
      plan.units.push_back(RenderUnit{c.flow, acks, n});
      plan.planned_frames += n;
    };
    plan_unit(c.data_frames, false);
    if (c.ack_frames > 0.0) plan_unit(c.ack_frames, true);
  }
  return plan;
}

void render_unit(const RenderUnit& unit, const util::RngBlock& draws,
                 util::Nanos duration, std::uint64_t begin, std::uint64_t end,
                 net::FrameBuilder& builder, net::FrameStore& store) {
  if (begin >= end) return;
  // Within a unit, frames differ only in timestamp and the TCP seq / ack /
  // DNS id derived from the frame index. Describe the stack once with the
  // varying field zeroed, bulk-draw the per-frame values in
  // struct-of-arrays chunks, and let the builder stamp the burst.
  builder.reset();
  net::PerFrameField field = net::PerFrameField::kTcpSeqAndDnsId;
  bool buildable = true;
  if (unit.acks) {
    fill_ack_frame(builder, unit.flow, 0);
    field = net::PerFrameField::kTcpAck;
  } else {
    buildable = fill_data_frame(builder, unit.flow, 0);
  }

  // Timestamp range: the unit's active interval clamped into the window.
  const util::Nanos lo = std::min(unit.ts_lo, duration - 1);
  const util::Nanos hi = std::clamp(unit.ts_hi, lo, duration - 1);

  // Chunked SoA scratch: large enough to amortize the vector RNG kernel
  // dispatch, small enough to stay on a worker's stack.
  constexpr std::size_t kChunk = 1024;
  util::Nanos ts[kChunk];
  std::uint32_t vals[kChunk];
  for (std::uint64_t j = begin; j < end;) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, end - j));
    // Draw j is frame j's timestamp: pure counter addressing, so any
    // [begin, end) burst decomposition renders identical bytes.
    draws.bounded_fill(j, lo, hi, std::span<util::Nanos>(ts, n));
    for (std::size_t i = 0; i < n; ++i) {
      vals[i] = static_cast<std::uint32_t>(j + i) * 1000;
    }
    if (buildable) {
      builder.build_many_into(store, std::span<const util::Nanos>(ts, n),
                              std::span<const std::uint32_t>(vals, n), field);
    } else {
      // Unreachable app value: one empty frame per timestamp.
      for (std::size_t i = 0; i < n; ++i) {
        store.commit(store.arena().size(), ts[i]);
      }
    }
    j += n;
  }
}

}  // namespace patchwork::traffic
