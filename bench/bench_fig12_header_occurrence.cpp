// Figure 12: "Occurrence of protocol headers in FABRIC traffic. Most
// traffic consists of Ethernet frames that carry IPv4 packets, that in
// turn carry TCP segments. Most traffic is tagged using VLAN, MPLS, or
// both." Ethernet exceeds 100% (frames carrying frames); IPv6 is only
// 1.93% of frames.
#include <iostream>

#include "bench_profile.hpp"
#include "util/table.hpp"

int main() {
  using namespace patchwork;
  bench::banner("Figure 12 — Protocol header occurrence",
                "Fig. 12, Section 8.2 (Headers)");

  bench::BenchWorld world;
  const auto profile = bench::gather_testbed_profile(world);
  const auto& result = profile.analysis.header_occurrence;
  const auto& tagging = profile.analysis.tagging;

  util::TextTable table({"Header", "% of frames", "Bar"});
  const net::Protocol interesting[] = {
      net::Protocol::kEthernet, net::Protocol::kVlan, net::Protocol::kMpls,
      net::Protocol::kPseudoWire, net::Protocol::kIpv4, net::Protocol::kIpv6,
      net::Protocol::kTcp,      net::Protocol::kUdp,  net::Protocol::kIcmp,
      net::Protocol::kArp,      net::Protocol::kTls,  net::Protocol::kSsh,
      net::Protocol::kHttp,     net::Protocol::kDns,  net::Protocol::kNtp,
      net::Protocol::kVxlan,    net::Protocol::kGre,  net::Protocol::kIperf};
  for (net::Protocol p : interesting) {
    const double pct = result.percent(p);
    if (pct == 0.0) continue;
    table.add_row({std::string(net::to_string(p)),
                   util::fmt_double(pct, 2),
                   bench::bar(pct, 210.0, 42)});
  }
  table.print(std::cout);

  const double frames = static_cast<double>(tagging.frames);
  std::cout << "\nPaper's anchors vs measured:\n"
            << "  Ethernet > 100% (carries Ethernet): "
            << util::fmt_double(result.percent(net::Protocol::kEthernet), 1)
            << "%\n"
            << "  IPv4 dominant: "
            << util::fmt_double(result.percent(net::Protocol::kIpv4), 1)
            << "%   IPv6 (paper 1.93%): "
            << util::fmt_double(result.percent(net::Protocol::kIpv6), 2)
            << "%\n"
            << "  TCP-dominant transport: TCP "
            << util::fmt_double(result.percent(net::Protocol::kTcp), 1)
            << "% vs UDP "
            << util::fmt_double(result.percent(net::Protocol::kUdp), 1)
            << "%\n"
            << "  Tagged with VLAN and/or MPLS: "
            << util::fmt_percent(
                   1.0 - static_cast<double>(tagging.untagged) / frames, 1)
            << " (VLAN "
            << util::fmt_percent(
                   static_cast<double>(tagging.vlan_tagged) / frames, 1)
            << ", MPLS "
            << util::fmt_percent(
                   static_cast<double>(tagging.mpls_tagged) / frames, 1)
            << ", both "
            << util::fmt_percent(
                   static_cast<double>(tagging.both_tagged) / frames, 1)
            << ")\n";
  return 0;
}
