#include "analysis/epoch_extract.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace patchwork::analysis {

namespace {

/// Most flows the record's top-flow sketch holds.
constexpr std::size_t kTopFlowCapacity = 256;

}  // namespace

archive::EpochRecord extract_epoch_record(const ProfileReport& report,
                                          const EpochMeta& meta) {
  archive::EpochRecord record;
  record.level = 0;
  record.epoch_count = 1;
  record.label = meta.label;
  record.start_nanos = static_cast<std::uint64_t>(meta.start);
  record.duration_nanos = static_cast<std::uint64_t>(meta.duration);
  record.offered_bps_sum = meta.offered_bps;
  record.manifest_json = meta.manifest_json;

  record.frames = report.digest_stats.frames;
  record.bad_records = report.digest_stats.bad_records;
  record.truncated_frames = report.digest_stats.truncated_frames;
  record.malformed_frames = report.digest_stats.malformed_frames;

  record.frame_sizes = report.frame_sizes;
  record.header_occurrence = report.header_occurrence;
  record.tcp_control = report.tcp_control;
  record.tagging = report.tagging;
  record.flow_snippets = report.distinct_flows;
  record.largest_flow_bytes = report.largest_flow_bytes;

  // Each row's SiteEpochLoad part. The report's rows are already sorted by
  // site name, as the record's must be.
  record.site_loads.assign(report.site_loads.begin(),
                           report.site_loads.end());
  for (const archive::SiteEpochLoad& load : record.site_loads) {
    record.samples += load.samples;
    record.pcap_bytes += load.pcap_bytes;
    record.switch_drops_suspected += load.switch_drops_suspected;
  }

  // Flows enter in FlowKey order, not hash-map order: exact per-flow byte
  // totals inserted in a canonical sequence make the sketch — and thus the
  // encoded record — independent of the aggregation's thread count.
  std::vector<const std::pair<const FlowKey, FlowAggregate>*> flows;
  flows.reserve(report.flow_aggregates.size());
  for (const auto& kv : report.flow_aggregates) flows.push_back(&kv);
  std::sort(flows.begin(), flows.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  archive::TopFlowSketch::Builder sketch(kTopFlowCapacity);
  for (const auto* kv : flows) {
    sketch.insert(kv->first.to_string(), kv->second.wire_bytes);
  }
  record.top_flows = std::move(sketch).build();
  return record;
}

}  // namespace patchwork::analysis
