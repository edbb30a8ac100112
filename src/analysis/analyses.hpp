// The Analyze step (Section 6.2.4): "a diverse set of analyses — for
// example, to characterize frame sizes, the types of headers observed in
// the captures, and classify flows".
//
// analyze() runs every analysis in one fold over the gathered captures,
// digesting each record and folding it before the next is read, and
// returns one plain result struct; the Process step (report.hpp) turns it
// into CSV.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/acap.hpp"
#include "analysis/digest.hpp"
#include "archive/record.hpp"

namespace patchwork::analysis {

// --- Frame sizes (Fig. 15 and the Section 8.2 aggregate) -----------------

/// The paper's frame-size buckets. The final bucket extends to the jumbo
/// maximum; 1519-2047 is the bucket that dominates FABRIC traffic.
std::vector<double> paper_frame_size_edges();

// --- Per-site rows (Fig. 11, Fig. 15 per site, capture volume) -----------

/// One site's row: its load (archive::SiteEpochLoad, every file of the site
/// counted, including one whose pcap did not open) plus its header
/// variety.
struct SiteLoad : archive::SiteEpochLoad {
  std::size_t distinct_headers = 0;  ///< y1-axis of Fig. 11.
  std::size_t deepest_stack = 0;     ///< y2-axis of Fig. 11.
};

// --- Flows (Fig. 13 and the flow-size aggregation) ------------------------

struct SampleFlowCount {
  std::string site;
  util::Nanos start = 0;
  std::size_t flows = 0;
};

struct FlowAggregate {
  std::uint64_t frames = 0;
  std::uint64_t wire_bytes = 0;  ///< Sum of original frame lengths.
  util::Nanos first_seen = 0;
  util::Nanos last_seen = 0;
  std::uint32_t rst_frames = 0;
  std::uint32_t samples = 0;  ///< Distinct samples the flow appeared in.
  /// Input position of the last sample the flow appeared in; the fold
  /// counts a flow once per sample by comparing against it.
  std::size_t last_sample = 0;
};

using FlowMap = std::unordered_map<FlowKey, FlowAggregate, FlowKeyHash>;

// --- Flow size & duration distributions (Section 4's profile definition:
// "the sizes and durations of flows") -----------------------------------

struct FlowDistributionResult {
  std::uint64_t flows = 0;
  /// Log-decade byte buckets: [1,10), [10,100), ... aggregated flow bytes.
  archive::HistCounts size_histogram = archive::HistCounts(
      {1, 10, 100, 1000, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11});
  /// Observed flow spans in seconds (snippet first-seen to last-seen).
  archive::HistCounts duration_histogram =
      archive::HistCounts({0, 1, 5, 20, 60, 300, 1800, 7200, 86400});
  std::uint64_t largest_flow_bytes = 0;
  // Size quantiles, computed with one sort via util::percentiles (the
  // flow-size tail is what Section 4 calls heavy; p95/p99 locate it).
  double median_flow_bytes = 0.0;
  double p95_flow_bytes = 0.0;
  double p99_flow_bytes = 0.0;
};

// --- Typical encapsulation stacks (Section 8.2's examples) -----------------

struct StackCount {
  std::string stack;  ///< e.g. "eth/vlan/mpls/mpls/pw/eth/ipv4/tcp/tls".
  std::uint64_t frames = 0;
  double fraction = 0.0;  ///< Of all frames.
};

// --- The whole Analyze step -------------------------------------------------

/// Frame sizes, header occurrence, TCP control, tagging and per-site load
/// are the archive's mergeable sums (archive/record.hpp); an epoch record
/// holds the same structs.
struct ProfileAnalysis {
  archive::HistCounts frame_sizes =
      archive::HistCounts(paper_frame_size_edges());
  archive::HeaderOccurrenceCounts header_occurrence;
  archive::TcpControlCounts tcp_control;
  archive::TaggingCounts tagging;
  /// Every distinct abstract header stack, most frequent first (ties by
  /// name) — the data behind the paper's "examples of typical
  /// encapsulations include ..." passage.
  std::vector<StackCount> stacks;
  /// Distinct flows in each sample (each capture is one sample window),
  /// in input order.
  std::vector<SampleFlowCount> flows_per_sample;
  /// One row per site, sorted by site name.
  std::vector<SiteLoad> site_loads;
  /// Cross-sample flow stitching: "we also analyzed across samples to piece
  /// together flow snippets and aggregate their packets."
  FlowMap flow_aggregates;
  FlowDistributionResult flow_distribution;
  std::uint64_t distinct_flows = 0;
  std::uint64_t largest_flow_bytes = 0;
  DigestStats digest_stats;
};

/// Digest and analyze a gathered profile in one pass, touching each record
/// once. The captures are cut into min(thread_count(), captures) contiguous
/// chunks of about equal pcap bytes, each digested and folded by one task;
/// the result is identical at any thread count.
ProfileAnalysis analyze(const std::vector<RawCapture>& captures);

}  // namespace patchwork::analysis
