// Section 4 — "Asymmetry in general profiling".
//
// "Today's network profiling techniques are inadequate for shared testbed
// networks because they are designed to provide information to a network's
// operator, not to the network's users... This information does not
// distinguish between testbed users and provides coarse statistics."
//
// This bench runs Patchwork over the federation and compares its tag-aware
// flow classification against a NetFlow-style 5-tuple operator view of the
// very same capture: slices that reuse 10/8 addresses collapse into single
// operator flows, quantifying the asymmetry that motivates Patchwork.
#include <iostream>

#include "analysis/operator_view.hpp"
#include "bench_profile.hpp"
#include "net/parser.hpp"
#include "pcap/pcap.hpp"
#include "telemetry/netflow.hpp"
#include "util/table.hpp"

int main() {
  using namespace patchwork;
  bench::banner("Section 4 — operator view vs Patchwork classification",
                "Section 4 (asymmetry in general profiling)");

  bench::BenchWorld world;
  const auto profile = bench::gather_testbed_profile(
      world, /*cycles=*/3, /*samples=*/2, /*max_frames=*/2000);

  const analysis::AsymmetryReport report =
      analysis::measure_asymmetry(profile.run.captures);

  util::TextTable table({"Metric", "Value"});
  table.add_row({"Patchwork flows (tags + 5-tuple)",
                 std::to_string(report.patchwork_flows)});
  table.add_row({"Operator flows (bare 5-tuple)",
                 std::to_string(report.operator_flows)});
  table.add_row({"5-tuple keys hiding multiple slices",
                 std::to_string(report.collapsed_keys)});
  table.add_row({"Flows invisible to the operator",
                 std::to_string(report.hidden_flows)});
  table.add_row({"Undercount",
                 util::fmt_percent(report.undercount_fraction(), 2)});
  table.print(std::cout);

  // Run the same captured traffic through an actual NetFlow v5 metering
  // process — the experiment the paper describes having performed — and
  // compare the data volumes each approach ships.
  telemetry::NetflowCache cache;
  std::uint64_t pcap_bytes = 0;
  for (const auto& capture : profile.run.captures) {
    pcap_bytes += capture.pcap.size();
    auto reader = pcap::PcapReader::open(capture.pcap);
    if (!reader) continue;
    while (auto view = reader->next_view()) {
      cache.observe(
          net::parse_bytes(view->bytes, view->wire_length, view->timestamp),
          capture.start + view->timestamp);
    }
    cache.sweep(capture.start + capture.duration);
  }
  cache.flush(0);
  std::uint32_t sequence = 0;
  const auto datagrams = netflow_export(cache.drain(), 0, sequence);
  std::uint64_t netflow_bytes = 0;
  for (const auto& d : datagrams) netflow_bytes += d.size();

  std::cout << "\nNetFlow v5 metering of the same traffic:\n"
            << "  exported " << sequence << " v5 records in "
            << datagrams.size() << " datagrams (" << netflow_bytes
            << " bytes) vs " << pcap_bytes
            << " bytes of header-truncated pcap.\n"
            << "  v5 keeps " << sequence
            << " unidirectional 5-tuples: no VLAN/MPLS tags, no header "
               "stacks, no frame\n  sizes — cheap, but exactly the coarse "
               "operator view Section 4 rejects.\n";

  std::cout
      << "\nEvery hidden flow is a pair of experiments whose 10/8 addresses "
         "collide;\nonly the virtualization tags (VLAN/MPLS) Patchwork keys "
         "on can separate them\n(Section 6.2.4). NetFlow-style summaries "
         "also cannot attribute traffic to a\nslice at all — the asymmetry "
         "that motivates a user-deployable profiler.\n";
  return 0;
}
