#include "analysis/analyses.hpp"

#include <algorithm>
#include <bitset>
#include <iterator>
#include <map>
#include <utility>

#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace patchwork::analysis {

std::vector<double> paper_frame_size_edges() {
  return {64, 65, 128, 256, 512, 1024, 1519, 2048, 4096, 9217};
}

double FrameSizeResult::fraction_in(double lo) const {
  for (std::size_t i = 0; i < histogram.bucket_count(); ++i) {
    if (histogram.bucket_lo(i) == lo) return histogram.fraction(i);
  }
  return 0.0;
}

double FrameSizeResult::jumbo_fraction() const {
  if (frames == 0) return 0.0;
  std::uint64_t jumbo = 0;
  for (std::size_t i = 0; i < histogram.bucket_count(); ++i) {
    if (histogram.bucket_lo(i) >= 1519) jumbo += histogram.bucket(i);
  }
  jumbo += histogram.overflow();
  return static_cast<double>(jumbo) / static_cast<double>(frames);
}

double HeaderOccurrenceResult::percent(net::Protocol p) const {
  if (frames == 0) return 0.0;
  return 100.0 *
         static_cast<double>(occurrences[static_cast<std::size_t>(p)]) /
         static_cast<double>(frames);
}

namespace {

using ProtocolSet = std::bitset<net::kProtocolCount>;

constexpr std::size_t bit(net::Protocol p) {
  return static_cast<std::size_t>(p);
}

/// Frames per distinct header stack.
using StackCounts =
    std::unordered_map<ProtocolStack, std::uint64_t, ProtocolStackHash>;

/// A site's row while it is being folded, plus every protocol seen there.
struct SiteFold {
  SiteLoad row;
  ProtocolSet protocols;
};

/// Flow maps merge per FlowKeyHash % kFlowShards shard, one task each. The
/// shard count is fixed, so a flow's shard does not depend on the thread
/// count.
constexpr std::size_t kFlowShards = 16;

void merge_aggregate(FlowAggregate& dst, const FlowAggregate& src) {
  dst.first_seen = std::min(dst.first_seen, src.first_seen);
  dst.last_seen = std::max(dst.last_seen, src.last_seen);
  dst.frames += src.frames;
  dst.wire_bytes += src.wire_bytes;
  dst.rst_frames += src.rst_frames;
  dst.samples += src.samples;
  dst.last_sample = std::max(dst.last_sample, src.last_sample);
}

/// What one chunk of contiguous captures folds into. Every field merges by
/// a sum, min, max or union, so the merged result cannot depend on where
/// the chunks were cut; flows_per_sample concatenates in chunk order,
/// which is capture order.
struct ChunkFold {
  DigestStats digest_stats;
  HeaderOccurrenceResult header_occurrence;
  TcpControlResult tcp_control;
  TaggingResult tagging;
  StackCounts stacks;
  std::vector<SampleFlowCount> flows_per_sample;
  std::map<std::string, SiteFold> sites;
  FlowMap flows;
  std::array<FlowMap, kFlowShards> shards;  ///< `flows`, once split.

  /// Digest the capture at input position `position` and fold each record
  /// as it is dissected.
  void add_capture(const RawCapture& capture, std::size_t position) {
    // The site's row exists from its first capture on, so a site whose
    // only capture did not open still reports its sample.
    auto [it, fresh] = sites.try_emplace(capture.site);
    SiteFold& site = it->second;
    if (fresh) site.row.site = capture.site;
    ++site.row.samples;
    site.row.pcap_bytes += capture.pcap.size();
    site.row.switch_drops_suspected += capture.switch_drops_suspected;

    std::size_t sample_flows = 0;
    digest(capture, &digest_stats, [&](const AcapRecord& r) {
      ProtocolSet seen;
      for (net::Protocol p : r.stack) {
        ++header_occurrence.occurrences[bit(p)];
        seen.set(bit(p));
      }
      ++header_occurrence.frames;
      ++stacks[r.stack];

      site.protocols |= seen;
      site.row.deepest_stack =
          std::max(site.row.deepest_stack, r.header_depth());
      ++site.row.frames;
      site.row.wire_bytes += r.wire_length;
      site.row.frame_sizes.histogram.add(static_cast<double>(r.wire_length));
      ++site.row.frame_sizes.frames;

      const bool vlan = seen.test(bit(net::Protocol::kVlan));
      const bool mpls = seen.test(bit(net::Protocol::kMpls));
      ++tagging.frames;
      if (vlan) ++tagging.vlan_tagged;
      if (mpls) ++tagging.mpls_tagged;
      if (vlan && mpls) ++tagging.both_tagged;
      if (!vlan && !mpls) ++tagging.untagged;

      if (seen.test(bit(net::Protocol::kTcp))) {
        using namespace net::tcp_flags;
        ++tcp_control.tcp_frames;
        if (r.tcp_flags & kSyn) ++tcp_control.syn;
        if (r.tcp_flags & kFin) ++tcp_control.fin;
        if (r.tcp_flags & kRst) ++tcp_control.rst;
        // A pure ACK ends at the TCP header: nothing followed on the wire.
        if ((r.tcp_flags & kAck) && !(r.tcp_flags & (kSyn | kFin | kRst)) &&
            r.stack.back() == net::Protocol::kTcp) {
          ++tcp_control.pure_ack;
        }
      }

      FlowAggregate& agg = flows[r.flow];
      const util::Nanos t = capture.start + r.timestamp;
      if (agg.frames == 0 || agg.last_sample != position) {
        agg.last_sample = position;
        ++agg.samples;
        ++sample_flows;
      }
      agg.first_seen = agg.frames == 0 ? t : std::min(agg.first_seen, t);
      agg.last_seen = agg.frames == 0 ? t : std::max(agg.last_seen, t);
      ++agg.frames;
      agg.wire_bytes += r.wire_length;
      if (r.tcp_flags & net::tcp_flags::kRst) ++agg.rst_frames;
    });
    flows_per_sample.push_back(
        SampleFlowCount{capture.site, capture.start, sample_flows});
  }

  /// Move every flow node into its shard map.
  void split_flows() {
    while (!flows.empty()) {
      auto node = flows.extract(flows.begin());
      shards[FlowKeyHash{}(node.key()) % kFlowShards].insert(std::move(node));
    }
  }

  /// Fold a later chunk's everything-but-flows into this one.
  void merge(ChunkFold&& later) {
    digest_stats += later.digest_stats;
    header_occurrence.frames += later.header_occurrence.frames;
    for (std::size_t i = 0; i < net::kProtocolCount; ++i) {
      header_occurrence.occurrences[i] +=
          later.header_occurrence.occurrences[i];
    }
    tcp_control.tcp_frames += later.tcp_control.tcp_frames;
    tcp_control.syn += later.tcp_control.syn;
    tcp_control.fin += later.tcp_control.fin;
    tcp_control.rst += later.tcp_control.rst;
    tcp_control.pure_ack += later.tcp_control.pure_ack;
    tagging.frames += later.tagging.frames;
    tagging.vlan_tagged += later.tagging.vlan_tagged;
    tagging.mpls_tagged += later.tagging.mpls_tagged;
    tagging.both_tagged += later.tagging.both_tagged;
    tagging.untagged += later.tagging.untagged;
    for (const auto& [stack, frames] : later.stacks) stacks[stack] += frames;
    flows_per_sample.insert(
        flows_per_sample.end(),
        std::make_move_iterator(later.flows_per_sample.begin()),
        std::make_move_iterator(later.flows_per_sample.end()));
    for (auto& [name, src] : later.sites) {
      auto [it, fresh] = sites.try_emplace(name, std::move(src));
      if (fresh) continue;
      SiteLoad& dst = it->second.row;
      dst.samples += src.row.samples;
      dst.frames += src.row.frames;
      dst.wire_bytes += src.row.wire_bytes;
      dst.pcap_bytes += src.row.pcap_bytes;
      dst.switch_drops_suspected += src.row.switch_drops_suspected;
      dst.frame_sizes.histogram += src.row.frame_sizes.histogram;
      dst.frame_sizes.frames += src.row.frame_sizes.frames;
      dst.deepest_stack = std::max(dst.deepest_stack, src.row.deepest_stack);
      it->second.protocols |= src.protocols;
    }
  }
};

/// Merge the chunks' flow maps. Shard s of every later chunk merges into
/// the first chunk's shard s in chunk order (one task per shard), and the
/// shards then join into the result. Nodes move between maps; only a key
/// that two chunks share is looked up, to merge its aggregates. A single
/// chunk's map is the result.
FlowMap merge_flows(std::vector<ChunkFold>& folds) {
  if (folds.size() == 1) return std::move(folds.front().flows);
  std::array<FlowMap, kFlowShards>& merged = folds.front().shards;
  util::parallel_for(kFlowShards, [&](std::size_t s) {
    for (std::size_t c = 1; c < folds.size(); ++c) {
      FlowMap& src = folds[c].shards[s];
      merged[s].merge(src);  // Moves every node whose key is new.
      for (const auto& [key, agg] : src) {
        merge_aggregate(merged[s].find(key)->second, agg);
      }
    }
  });
  FlowMap out;
  std::size_t total = 0;
  for (const FlowMap& shard : merged) total += shard.size();
  out.reserve(total);
  for (FlowMap& shard : merged) out.merge(shard);
  return out;
}

FlowDistributionResult flow_distribution_of(const FlowMap& flows) {
  FlowDistributionResult result;
  std::vector<double> sizes;
  sizes.reserve(flows.size());
  for (const auto& [key, agg] : flows) {
    ++result.flows;
    result.size_histogram.add(static_cast<double>(agg.wire_bytes));
    result.duration_histogram.add(
        util::to_seconds(agg.last_seen - agg.first_seen));
    result.largest_flow_bytes =
        std::max(result.largest_flow_bytes, agg.wire_bytes);
    sizes.push_back(static_cast<double>(agg.wire_bytes));
  }
  if (!sizes.empty()) {
    const double ps[] = {50.0, 95.0, 99.0};
    const std::vector<double> qs = util::percentiles(sizes, ps);
    result.median_flow_bytes = qs[0];
    result.p95_flow_bytes = qs[1];
    result.p99_flow_bytes = qs[2];
  }
  return result;
}

/// Name each distinct stack once and rank them: most frames first, then by
/// name.
std::vector<StackCount> rank_stacks(const StackCounts& counts,
                                    std::uint64_t total) {
  std::vector<StackCount> out;
  out.reserve(counts.size());
  for (const auto& [stack, frames] : counts) {
    std::string name;
    for (net::Protocol p : stack) {
      if (!name.empty()) name += '/';
      name += net::to_string(p);
    }
    out.push_back(StackCount{
        std::move(name), frames,
        total ? static_cast<double>(frames) / static_cast<double>(total)
              : 0.0});
  }
  std::sort(out.begin(), out.end(), [](const StackCount& a,
                                       const StackCount& b) {
    if (a.frames != b.frames) return a.frames > b.frames;
    return a.stack < b.stack;
  });
  return out;
}

/// Cut the captures into `chunks` contiguous ranges of about equal pcap
/// bytes: a capture joins the chunk whose share of the bytes holds its
/// first byte, so a chunk can be empty. Chunk c is [first[c], first[c+1]).
std::vector<std::size_t> cut_by_bytes(const std::vector<RawCapture>& captures,
                                      std::size_t chunks) {
  std::uint64_t total = 0;
  for (const RawCapture& capture : captures) total += capture.pcap.size();
  std::vector<std::size_t> first(chunks + 1, captures.size());
  first[0] = 0;
  std::uint64_t before = 0;
  std::size_t chunk = 0;
  for (std::size_t i = 0; i < captures.size(); ++i) {
    const std::size_t owner =
        total ? std::min<std::size_t>(chunks - 1, before * chunks / total) : 0;
    while (chunk < owner) first[++chunk] = i;
    before += captures[i].pcap.size();
  }
  return first;
}

}  // namespace

ProfileAnalysis analyze(const std::vector<RawCapture>& captures) {
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min(util::thread_count(), captures.size()));
  const std::vector<std::size_t> first = cut_by_bytes(captures, chunks);
  std::vector<ChunkFold> folds(chunks);
  util::parallel_for(chunks, [&](std::size_t c) {
    for (std::size_t i = first[c]; i < first[c + 1]; ++i) {
      folds[c].add_capture(captures[i], i);
    }
    if (chunks > 1) folds[c].split_flows();
  });

  ProfileAnalysis out;
  out.flow_aggregates = merge_flows(folds);
  ChunkFold& all = folds.front();
  for (std::size_t c = 1; c < chunks; ++c) all.merge(std::move(folds[c]));

  out.digest_stats = all.digest_stats;
  out.header_occurrence = all.header_occurrence;
  out.tcp_control = all.tcp_control;
  out.tagging = all.tagging;
  out.stacks = rank_stacks(all.stacks, all.header_occurrence.frames);
  out.flows_per_sample = std::move(all.flows_per_sample);
  ProtocolSet headers;
  headers.set().reset(bit(net::Protocol::kTruncated));
  headers.reset(bit(net::Protocol::kMalformed));
  out.site_loads.reserve(all.sites.size());
  for (auto& [name, site] : all.sites) {
    site.row.distinct_headers = (site.protocols & headers).count();
    // The site histograms partition the profile's.
    out.frame_sizes.histogram += site.row.frame_sizes.histogram;
    out.frame_sizes.frames += site.row.frame_sizes.frames;
    out.site_loads.push_back(std::move(site.row));
  }
  out.distinct_flows = out.flow_aggregates.size();
  out.flow_distribution = flow_distribution_of(out.flow_aggregates);
  out.largest_flow_bytes = out.flow_distribution.largest_flow_bytes;
  return out;
}

}  // namespace patchwork::analysis
