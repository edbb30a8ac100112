// Figure 11: "Across all (anonymized) FABRIC sites, this shows (y1-axis)
// the number of distinct headers observed, and (y2-axis) deepest stack of
// headers observed."
//
// Shape to reproduce: wide per-site variety in distinct headers (some
// sites few, some many — finding B2) and deepest stacks between 6 and 12.
#include <algorithm>
#include <iostream>

#include "bench_profile.hpp"
#include "util/table.hpp"

int main() {
  using namespace patchwork;
  bench::banner("Figure 11 — Distinct headers & deepest stack per site",
                "Fig. 11, Section 8.2 (Headers)");

  bench::BenchWorld world;
  const auto profile = bench::gather_testbed_profile(world);
  auto variety = profile.analysis.site_loads;
  // The paper orders sites by distinct-header count.
  std::sort(variety.begin(), variety.end(),
            [](const auto& a, const auto& b) {
              return a.distinct_headers < b.distinct_headers;
            });

  util::TextTable table(
      {"Site", "Distinct headers", "Deepest stack", "Variety bar"});
  std::size_t max_variety = 0, min_variety = SIZE_MAX;
  std::size_t max_depth = 0, min_depth = SIZE_MAX;
  for (const auto& row : variety) {
    max_variety = std::max(max_variety, row.distinct_headers);
    min_variety = std::min(min_variety, row.distinct_headers);
    max_depth = std::max(max_depth, row.deepest_stack);
    min_depth = std::min(min_depth, row.deepest_stack);
  }
  for (const auto& row : variety) {
    table.add_row({row.site, std::to_string(row.distinct_headers),
                   std::to_string(row.deepest_stack),
                   bench::bar(static_cast<double>(row.distinct_headers),
                              static_cast<double>(max_variety), 30)});
  }
  table.print(std::cout);

  std::cout << "\nPaper: distinct headers vary widely across sites "
               "(finding B2); deepest stacks span 6-12 headers.\n"
            << "Measured: distinct headers " << min_variety << ".."
            << max_variety << "; deepest stacks " << min_depth << ".."
            << max_depth << ".\n";
  return 0;
}
