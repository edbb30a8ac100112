// The Process step (Section 6.2.4): analysis results -> CSV files that
// "describe different aspects of the profile — such as the distribution of
// different types of frames across FABRIC sites, and the composition of
// flows."
#pragma once

#include <ostream>

#include "analysis/analyses.hpp"

namespace patchwork::analysis {

void write_frame_size_csv(std::ostream& out,
                          const archive::HistCounts& result);
void write_site_frame_size_csv(std::ostream& out,
                               const std::vector<SiteLoad>& sites);
void write_header_occurrence_csv(
    std::ostream& out, const archive::HeaderOccurrenceCounts& result);
void write_site_variety_csv(std::ostream& out,
                            const std::vector<SiteLoad>& sites);
void write_flows_per_sample_csv(std::ostream& out,
                                const std::vector<SampleFlowCount>& rows);
void write_flow_aggregate_csv(std::ostream& out, const FlowMap& flows);
void write_tcp_control_csv(std::ostream& out,
                           const archive::TcpControlCounts& result);
void write_tagging_csv(std::ostream& out,
                       const archive::TaggingCounts& result);
/// The ten most frequent stacks of `rows` (ranked as ProfileAnalysis::stacks).
void write_top_stacks_csv(std::ostream& out,
                          const std::vector<StackCount>& rows);
void write_flow_distribution_csv(std::ostream& out,
                                 const FlowDistributionResult& result);

}  // namespace patchwork::analysis
