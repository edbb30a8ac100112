// Figure 15 (and the Section 8.2 aggregate): "Distribution of frame sizes
// at different FABRIC sites... site names are pseudonymized as S0-S29.
// Striped columns represent the portion of a site's frames that were
// jumbo size."
//
// Aggregate anchors: 1519-2047 B = 74.7%, 65-127 B = 14.15%,
// 128-255 B = 5.79%; sites differ substantially (S3/S7 jumbo-heavy,
// S11/S12 small-packet-heavy).
#include <iostream>

#include "bench_profile.hpp"
#include "util/table.hpp"

int main() {
  using namespace patchwork;
  bench::banner("Figure 15 — Frame-size distribution per site",
                "Fig. 15 / Section 8.2 (Frame sizes)");

  bench::BenchWorld world;
  const auto profile = bench::gather_testbed_profile(world);

  // Aggregate distribution first (the Section 8.2 numbers).
  const auto& aggregate = profile.analysis.frame_sizes;
  util::TextTable agg_table({"Bucket (B)", "Fraction", "Paper", "Bar"});
  struct Anchor {
    double lo;
    const char* paper;
  };
  const Anchor anchors[] = {{64, "-"},        {65, "14.15%"}, {128, "5.79%"},
                            {256, "-"},       {512, "-"},     {1024, "-"},
                            {1519, "74.7%"},  {2048, "-"},    {4096, "-"}};
  for (const Anchor& a : anchors) {
    const double frac = aggregate.fraction_in(a.lo);
    agg_table.add_row(
        {util::fmt_double(a.lo, 0), util::fmt_percent(frac, 2), a.paper,
         bench::bar(frac, 1.0, 40)});
  }
  agg_table.print(std::cout);

  // Per-site jumbo share (the striped columns of Fig. 15).
  std::cout << "\nPer-site jumbo share (striped columns):\n";
  util::TextTable site_table({"Site", "Frames", "Jumbo share", "Bar"});
  double min_jumbo = 1.0, max_jumbo = 0.0;
  for (const auto& site : profile.analysis.site_loads) {
    const auto& r = site.frame_sizes;
    if (r.total() == 0) continue;
    const double jumbo = r.fraction_at_or_above(archive::kJumboEdgeBytes);
    min_jumbo = std::min(min_jumbo, jumbo);
    max_jumbo = std::max(max_jumbo, jumbo);
    site_table.add_row({site.site, std::to_string(r.total()),
                        util::fmt_percent(jumbo, 1),
                        bench::bar(jumbo, 1.0, 40)});
  }
  site_table.print(std::cout);

  std::cout << "\nPaper: substantial per-site variation; several sites are "
               "notable for jumbo frames, others carry mostly small "
               "packets.\nMeasured jumbo-share range across sites: "
            << util::fmt_percent(min_jumbo, 1) << " .. "
            << util::fmt_percent(max_jumbo, 1) << "\n";
  return 0;
}
