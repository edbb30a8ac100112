#include "analysis/epoch_extract.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace patchwork::analysis {

namespace {

archive::HistCounts to_hist_counts(const util::Histogram& histogram) {
  archive::HistCounts out;
  const std::size_t n = histogram.bucket_count();
  out.edges.reserve(n + 1);
  out.counts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.edges.push_back(histogram.bucket_lo(i));
    out.counts.push_back(histogram.bucket(i));
  }
  if (n > 0) out.edges.push_back(histogram.bucket_hi(n - 1));
  out.underflow = histogram.underflow();
  out.overflow = histogram.overflow();
  return out;
}

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

  record.frame_sizes = to_hist_counts(report.frame_sizes.histogram);
  record.occurrence_frames = report.header_occurrence.frames;
  record.protocol_occurrences.assign(
      report.header_occurrence.occurrences.begin(),
      report.header_occurrence.occurrences.end());

  record.tcp_frames = report.tcp_control.tcp_frames;
  record.tcp_syn = report.tcp_control.syn;
  record.tcp_fin = report.tcp_control.fin;
  record.tcp_rst = report.tcp_control.rst;
  record.tcp_pure_ack = report.tcp_control.pure_ack;

  record.tag_frames = report.tagging.frames;
  record.vlan_tagged = report.tagging.vlan_tagged;
  record.mpls_tagged = report.tagging.mpls_tagged;
  record.both_tagged = report.tagging.both_tagged;
  record.untagged = report.tagging.untagged;

  record.flow_snippets = report.distinct_flows;
  record.largest_flow_bytes = report.largest_flow_bytes;

  for (const SiteLoad& load : report.site_loads) {
    archive::SiteEpochLoad out;
    out.site = load.site;
    out.samples = load.samples;
    out.frames = load.frames;
    out.wire_bytes = load.wire_bytes;
    out.pcap_bytes = load.pcap_bytes;
    out.switch_drops_suspected = load.switch_drops_suspected;
    out.frame_sizes = to_hist_counts(load.frame_sizes.histogram);
    record.site_loads.push_back(std::move(out));
    record.samples += load.samples;
    record.pcap_bytes += load.pcap_bytes;
    record.switch_drops_suspected += load.switch_drops_suspected;
  }
  std::sort(record.site_loads.begin(), record.site_loads.end(),
            [](const archive::SiteEpochLoad& a,
               const archive::SiteEpochLoad& b) { return a.site < b.site; });

  // Flows enter in FlowKey order, not hash-map order: exact per-flow byte
  // totals inserted in a canonical sequence make the sketch — and thus the
  // encoded record — independent of the aggregation's thread count.
  std::vector<const std::pair<const FlowKey, FlowAggregate>*> flows;
  flows.reserve(report.flow_aggregates.size());
  for (const auto& kv : report.flow_aggregates) flows.push_back(&kv);
  std::sort(flows.begin(), flows.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  archive::TopFlowSketch::Builder sketch(meta.top_flow_capacity);
  for (const auto* kv : flows) {
    sketch.insert(kv->first.to_string(), kv->second.wire_bytes);
  }
  record.top_flows = std::move(sketch).build();
  return record;
}

}  // namespace patchwork::analysis
