// Ablation — truncation size (requirement 3 / Section 8.1.4).
//
// Truncation trades storage and sustainable rate against header fidelity:
// too small a snaplen cuts into FABRIC's deep encapsulation stacks and
// the dissector loses layers. This bench sweeps snaplen and reports
// (a) frames whose header stack was cut (dissection fidelity),
// (b) bytes stored per sample (storage footprint), and
// (c) the sustainable capture rate from the capacity model.
#include <iostream>

#include "analysis/analyses.hpp"
#include "analysis/digest.hpp"
#include "bench_util.hpp"
#include "capture/session.hpp"
#include "core/window_render.hpp"
#include "traffic/flowgen.hpp"
#include "util/table.hpp"

int main() {
  using namespace patchwork;
  bench::banner("Ablation — truncation size vs fidelity/storage/rate",
                "Sections 6.2.2 & 8.1.4 (truncation) design choice");

  // One fixed window of realistic traffic, planned on a fork of the
  // stream and rendered the way the profiler renders a sample.
  util::Rng rng(77);
  const auto profiles = traffic::make_site_profiles(rng, 1);
  traffic::WindowParams params;
  params.duration = 20 * util::kSecond;
  params.target_bps = 2e9;
  params.max_frames = 8000;
  const util::Rng window_rng = rng.fork();
  util::Rng plan_rng = window_rng.split(traffic::kWindowPlanStream);
  const traffic::WindowPlan plan =
      traffic::plan_window(plan_rng, profiles[0], params);
  const core::RenderedWindow window = core::render_window(
      plan, window_rng, params.duration, /*delivery=*/1.0, {});

  host::HostSpec host;
  util::TextTable table({"Snaplen (B)", "Truncated stacks", "Stored MB",
                         "Sustainable Gbps (5 cores, 1514B)"});
  for (std::uint32_t snaplen : {64u, 96u, 128u, 200u, 512u, 65535u}) {
    capture::CaptureConfig config;
    config.method = capture::CaptureMethod::kFpgaDpdk;
    config.cores = 5;
    config.snaplen = snaplen;
    util::Rng crng(1);
    capture::CaptureSession session(config, host, crng);
    capture::CaptureResult result =
        session.run(window.frames, /*offered_pps=*/1000.0);

    analysis::RawCapture raw;
    raw.site = "S0";
    raw.pcap = std::move(result.pcap);
    analysis::DigestStats stats;
    analysis::digest(raw, &stats, [](const analysis::AcapRecord&) {});

    const double capacity_pps = host.dpdk_capacity_pps(5, snaplen);
    const double gbps = capacity_pps * 1514.0 * 8.0 / 1e9;
    table.add_row(
        {std::to_string(snaplen),
         std::to_string(stats.truncated_frames) + "/" +
             std::to_string(stats.frames),
         util::fmt_double(static_cast<double>(result.stats.bytes_stored) /
                              1e6,
                          2),
         util::fmt_double(std::min(gbps, 100.0), 1)});
  }
  table.print(std::cout);

  std::cout
      << "\nExpected shape: 64 B cuts into most encapsulated stacks "
         "(FABRIC underlay\nstacks reach 6-12 headers); the paper's 200 B "
         "keeps nearly all header stacks\nintact while storing ~7x less "
         "than full frames and sustaining line rate.\n";
  return 0;
}
