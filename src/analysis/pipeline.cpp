#include "analysis/pipeline.hpp"

#include <array>
#include <functional>
#include <sstream>
#include <utility>

#include "analysis/report.hpp"
#include "obs/span.hpp"
#include "util/parallel.hpp"

namespace patchwork::analysis {

DigestedProfile digest_profile(const std::vector<RawCapture>& captures) {
  DigestedProfile out;
  out.files = digest_all(captures, &out.stats);
  return out;
}

ProfileReport run_pipeline(const std::vector<RawCapture>& captures) {
  ProfileReport report;
  std::vector<AcapFile> files;
  {
    OBS_SPAN("pipeline/digest_all");
    files = digest_all(captures, &report.digest_stats);
  }
  {
    OBS_SPAN("pipeline/analyze");
    static_cast<ProfileAnalysis&>(report) = analyze(files);
  }

  // Process step: render every CSV, one parallel task per file, each into
  // its own slot; the name->bytes map is assembled afterwards in order.
  using Emitter = std::pair<const char*, std::function<void(std::ostream&)>>;
  const std::array<Emitter, 10> emitters = {{
      {"frame_sizes.csv",
       [&](std::ostream& os) { write_frame_size_csv(os, report.frame_sizes); }},
      {"site_frame_sizes.csv",
       [&](std::ostream& os) {
         write_site_frame_size_csv(os, report.site_loads);
       }},
      {"header_occurrence.csv",
       [&](std::ostream& os) {
         write_header_occurrence_csv(os, report.header_occurrence);
       }},
      {"site_variety.csv",
       [&](std::ostream& os) {
         write_site_variety_csv(os, report.site_loads);
       }},
      {"flows_per_sample.csv",
       [&](std::ostream& os) {
         write_flows_per_sample_csv(os, report.flows_per_sample);
       }},
      {"flow_aggregate.csv",
       [&](std::ostream& os) {
         write_flow_aggregate_csv(os, report.flow_aggregates);
       }},
      {"tcp_control.csv",
       [&](std::ostream& os) { write_tcp_control_csv(os, report.tcp_control); }},
      {"tagging.csv",
       [&](std::ostream& os) { write_tagging_csv(os, report.tagging); }},
      {"top_stacks.csv",
       [&](std::ostream& os) { write_top_stacks_csv(os, report.stacks); }},
      {"flow_distribution.csv",
       [&](std::ostream& os) {
         write_flow_distribution_csv(os, report.flow_distribution);
       }},
  }};
  std::array<std::string, emitters.size()> rendered;
  {
    OBS_SPAN("pipeline/process_csv");
    util::parallel_for(emitters.size(), [&](std::size_t i) {
      std::ostringstream os;
      emitters[i].second(os);
      rendered[i] = os.str();
    });
  }
  for (std::size_t i = 0; i < emitters.size(); ++i) {
    report.csv_files[emitters[i].first] = std::move(rendered[i]);
  }
  return report;
}

}  // namespace patchwork::analysis
