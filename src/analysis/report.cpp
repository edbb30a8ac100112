#include "analysis/report.hpp"

#include <algorithm>

#include "util/csv.hpp"

namespace patchwork::analysis {

void write_frame_size_csv(std::ostream& out,
                          const archive::HistCounts& result) {
  util::CsvWriter csv(out, {"bucket_lo", "bucket_hi", "frames", "fraction"});
  for (std::size_t i = 0; i < result.counts.size(); ++i) {
    csv.begin_row()
        .add(result.edges[i])
        .add(result.edges[i + 1])
        .add(result.counts[i])
        .add(result.fraction(i))
        .end_row();
  }
}

void write_site_frame_size_csv(std::ostream& out,
                               const std::vector<SiteLoad>& sites) {
  util::CsvWriter csv(out, {"site", "bucket_lo", "bucket_hi", "fraction",
                            "jumbo_fraction"});
  for (const SiteLoad& site : sites) {
    const archive::HistCounts& r = site.frame_sizes;
    const double jumbo = r.fraction_at_or_above(archive::kJumboEdgeBytes);
    for (std::size_t i = 0; i < r.counts.size(); ++i) {
      csv.begin_row()
          .add(site.site)
          .add(r.edges[i])
          .add(r.edges[i + 1])
          .add(r.fraction(i))
          .add(jumbo)
          .end_row();
    }
  }
}

void write_header_occurrence_csv(
    std::ostream& out, const archive::HeaderOccurrenceCounts& result) {
  util::CsvWriter csv(out, {"protocol", "occurrences", "percent_of_frames"});
  for (std::size_t i = 0; i < result.occurrences.size(); ++i) {
    const auto p = static_cast<net::Protocol>(i);
    if (result.occurrences[i] == 0) continue;
    csv.begin_row()
        .add(net::to_string(p))
        .add(result.occurrences[i])
        .add(result.percent(p))
        .end_row();
  }
}

void write_site_variety_csv(std::ostream& out,
                            const std::vector<SiteLoad>& sites) {
  util::CsvWriter csv(out, {"site", "distinct_headers", "deepest_stack"});
  for (const SiteLoad& r : sites) {
    csv.begin_row()
        .add(r.site)
        .add(static_cast<std::uint64_t>(r.distinct_headers))
        .add(static_cast<std::uint64_t>(r.deepest_stack))
        .end_row();
  }
}

void write_flows_per_sample_csv(std::ostream& out,
                                const std::vector<SampleFlowCount>& rows) {
  util::CsvWriter csv(out, {"site", "sample_start_s", "flows"});
  for (const SampleFlowCount& r : rows) {
    csv.begin_row()
        .add(r.site)
        .add(util::to_seconds(r.start))
        .add(static_cast<std::uint64_t>(r.flows))
        .end_row();
  }
}

void write_flow_aggregate_csv(std::ostream& out, const FlowMap& flows) {
  util::CsvWriter csv(out, {"flow", "frames", "wire_bytes", "samples",
                            "rst_frames", "span_s"});
  // Deterministic output order: largest flows first.
  std::vector<const std::pair<const FlowKey, FlowAggregate>*> rows;
  rows.reserve(flows.size());
  for (const auto& kv : flows) rows.push_back(&kv);
  std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    if (a->second.wire_bytes != b->second.wire_bytes) {
      return a->second.wire_bytes > b->second.wire_bytes;
    }
    return a->first < b->first;
  });
  for (const auto* kv : rows) {
    csv.begin_row()
        .add(kv->first.to_string())
        .add(kv->second.frames)
        .add(kv->second.wire_bytes)
        .add(static_cast<std::uint64_t>(kv->second.samples))
        .add(static_cast<std::uint64_t>(kv->second.rst_frames))
        .add(util::to_seconds(kv->second.last_seen - kv->second.first_seen))
        .end_row();
  }
}

void write_tcp_control_csv(std::ostream& out,
                           const archive::TcpControlCounts& result) {
  util::CsvWriter csv(out, {"metric", "count"});
  csv.begin_row().add("tcp_frames").add(result.tcp_frames).end_row();
  csv.begin_row().add("syn").add(result.syn).end_row();
  csv.begin_row().add("fin").add(result.fin).end_row();
  csv.begin_row().add("rst").add(result.rst).end_row();
  csv.begin_row().add("pure_ack").add(result.pure_ack).end_row();
}

void write_top_stacks_csv(std::ostream& out,
                          const std::vector<StackCount>& rows) {
  constexpr std::size_t kTopStacks = 10;
  util::CsvWriter csv(out, {"stack", "frames", "fraction"});
  for (std::size_t i = 0; i < std::min(rows.size(), kTopStacks); ++i) {
    const StackCount& r = rows[i];
    csv.begin_row().add(r.stack).add(r.frames).add(r.fraction).end_row();
  }
}

void write_flow_distribution_csv(std::ostream& out,
                                 const FlowDistributionResult& result) {
  util::CsvWriter csv(out, {"dimension", "bucket_lo", "bucket_hi", "flows"});
  const auto rows = [&csv](const char* dimension,
                           const archive::HistCounts& h) {
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      csv.begin_row()
          .add(dimension)
          .add(h.edges[i])
          .add(h.edges[i + 1])
          .add(h.counts[i])
          .end_row();
    }
  };
  rows("bytes", result.size_histogram);
  rows("seconds", result.duration_histogram);
}

void write_tagging_csv(std::ostream& out,
                       const archive::TaggingCounts& result) {
  util::CsvWriter csv(out, {"metric", "count"});
  csv.begin_row().add("frames").add(result.frames).end_row();
  csv.begin_row().add("vlan_tagged").add(result.vlan_tagged).end_row();
  csv.begin_row().add("mpls_tagged").add(result.mpls_tagged).end_row();
  csv.begin_row().add("both_tagged").add(result.both_tagged).end_row();
  csv.begin_row().add("untagged").add(result.untagged).end_row();
}

}  // namespace patchwork::analysis
